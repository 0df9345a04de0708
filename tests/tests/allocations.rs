//! Allocation pins: heap traffic per unit of steady-state work, counted by
//! a global allocator and required to stay at its pinned value.
//!
//! The allocator counts `alloc` and `realloc` calls made by the calling
//! thread only, through a `const` thread-local, so the other tests of this
//! binary running in parallel cannot pollute a count. Each pin warms its
//! subject up first: buffers that size themselves on first use are set-up,
//! not steady state.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use dimmer_glossy::{FloodSimulator, GlossyConfig, NtxAssignment};
use dimmer_neural::{Mlp, MlpWorkspace};
use dimmer_rl::{DqnConfig, DqnTrainer, Transition};
use dimmer_sim::{kiel_jamming, topogen, CompiledTopology, SimRng, SimTime, Topology};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations per thread.
struct Counting;

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the thread-local counter is a `const`-initialised `Cell` with
// no destructor, so touching it never allocates or re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The allocations `f` makes on this thread.
fn allocations_in(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// The paper's DQN shape: 31 inputs, 30 hidden ReLU units, 3 actions.
const STATE_DIM: usize = 31;
const ACTIONS: usize = 3;

/// A deterministic state with negatives and exact zeros.
fn state(k: usize) -> Vec<f32> {
    (0..STATE_DIM)
        .map(|i| ((k * 7 + i * 13) % 11) as f32 / 5.0 - 1.0)
        .collect()
}

fn transitions(n: usize) -> Vec<Transition> {
    (0..n)
        .map(|k| Transition {
            state: state(k),
            action: k % ACTIONS,
            reward: (k % 5) as f32 / 4.0,
            next_state: state(k + 1),
            done: k % 9 == 8,
        })
        .collect()
}

#[test]
fn counter_sees_this_threads_allocations() {
    let n = allocations_in(|| {
        std::hint::black_box(vec![0u8; 64]);
    });
    assert_eq!(n, 1);
}

#[test]
fn warm_forward_and_training_steps_allocate_nothing() {
    let mut net = Mlp::new(&[STATE_DIM, 30, ACTIONS], 3);
    let mut ws = MlpWorkspace::default();
    let inputs: Vec<Vec<f32>> = (0..64).map(state).collect();
    net.train_single_output(&inputs[0], 0, 0.5, 0.01, &mut ws);
    let n = allocations_in(|| {
        for (k, input) in inputs.iter().enumerate() {
            std::hint::black_box(net.forward_in(input, &mut ws));
            net.train_single_output(input, k % ACTIONS, 0.5, 0.01, &mut ws);
        }
    });
    assert_eq!(
        n, 0,
        "Mlp::forward_in / train_single_output with a warm workspace"
    );
}

#[test]
fn observe_at_allocates_nothing_after_warm_up() {
    let cfg = DqnConfig::paper_default();
    let (warmup, sync) = (cfg.warmup_transitions, cfg.target_sync_interval);
    let mut trainer = DqnTrainer::new(STATE_DIM, ACTIONS, cfg, 11);
    // The counted steps train on a batch every time and cross a target sync;
    // the transitions themselves are the caller's, built beforehand.
    let counted = 2 * sync;
    let mut stream = transitions(warmup + 1 + counted).into_iter().enumerate();
    for (i, t) in stream.by_ref().take(warmup + 1) {
        trainer.observe_at(t, i + 1);
    }
    let mut losses = 0;
    let n = allocations_in(|| {
        for (i, t) in stream {
            losses += usize::from(trainer.observe_at(t, i + 1).is_some());
        }
    });
    assert_eq!(losses, counted, "every counted step trains a batch");
    assert_eq!(
        n, 0,
        "DqnTrainer::observe_at at the paper's shape, batch 16"
    );
}

/// The allocations of `floods` floods over `world` under the Fig. 5
/// two-jammer 30 % interference, counted after one warm-up flood. The
/// floods alternate uniform and per-node `N_TX` (passive receivers
/// included) and every third one runs under a participation mask.
fn warm_flood_allocations(world: CompiledTopology, floods: u64) -> u64 {
    let jam = kiel_jamming(0.30);
    let n = world.num_nodes();
    let initiator = world.coordinator();
    let mut sim = FloodSimulator::new(world, &jam);
    let per_node = NtxAssignment::PerNode((0..n).map(|i| (i % 4) as u8).collect());
    let cfgs = [
        GlossyConfig::with_uniform_ntx(3),
        GlossyConfig::default().with_ntx(per_node),
    ];
    let mask: Vec<bool> = (0..n)
        .map(|i| i == initiator.index() || i % 5 != 2)
        .collect();
    let mut rng = SimRng::seed_from(7);
    let mut flood = |k: u64| {
        let cfg = &cfgs[(k % 2) as usize];
        let start = SimTime::from_millis(k * 37);
        let out = if k.is_multiple_of(3) {
            sim.flood_with_participants(cfg, initiator, start, &mut rng, &mask)
        } else {
            sim.flood(cfg, initiator, start, &mut rng)
        };
        std::hint::black_box(out);
    };
    flood(0);
    allocations_in(|| (1..=floods).for_each(&mut flood))
}

#[test]
fn warm_dense_floods_allocate_only_their_outcome() {
    let world = CompiledTopology::compile(&Topology::kiel_testbed_18(1));
    assert_eq!(
        warm_flood_allocations(world, 50),
        50,
        "FloodSimulator on the 18-node testbed: one FloodOutcome per flood"
    );
}

#[test]
fn warm_sparse_floods_allocate_only_their_outcome() {
    let world = topogen::sparse_grid(100, 100, 8.0, 1);
    assert_eq!(
        warm_flood_allocations(world, 50),
        50,
        "FloodSimulator on the sparse 100 x 100 grid: one FloodOutcome per flood"
    );
}
