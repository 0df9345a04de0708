//! Deterministic scoped worker pool: the atomic-cursor work queue shared
//! by every parallel layer of the workspace.
//!
//! Every parallel layer calls it directly — flood-level parallelism
//! ([`FloodSimulator::run_parallel`]), trial-level parallelism (the bench
//! harness, and through it every grid `dimmerd` serves) and the training
//! farm's episode rollouts (`dimmer_rl::farm`) — so they share one
//! implementation with one determinism argument:
//!
//! 1. **Dynamic distribution, static placement** — jobs are handed to
//!    workers through an atomic cursor (long and short jobs share the pool
//!    efficiently), but every result is written into its pre-assigned slot
//!    `i`, so the returned vector is in job order no matter how the OS
//!    schedules the workers.
//! 2. **No shared mutable job state** — the job closure receives only its
//!    index (and, in the [`run_indexed_jobs_with`] variant, a private
//!    per-worker scratch state built by `init`). Anything the jobs read is
//!    shared by `&`, so a job's output is a pure function of its index.
//!
//! Together these make the output byte-identical for every thread count:
//! parallelism is pure prefetch.
//!
//! [`FloodSimulator::run_parallel`]: https://docs.rs/dimmer-glossy

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Fans `jobs` indexed jobs out across `threads` workers and returns the
/// results **in job order**.
///
/// `threads` is clamped to `1..=jobs`; `threads == 0` runs one worker.
/// With `jobs == 0` the result is empty and no thread is spawned beyond
/// the (immediately exiting) pool.
///
/// # Panics
///
/// Panics if a job closure panics (the poisoned result store propagates).
///
/// # Examples
///
/// ```
/// use dimmer_sim::workqueue::run_indexed_jobs;
/// for threads in [1, 2, 8] {
///     let out = run_indexed_jobs(5, threads, |i| i * i);
///     assert_eq!(out, vec![0, 1, 4, 9, 16]);
/// }
/// ```
pub fn run_indexed_jobs<R, F>(jobs: usize, threads: usize, run: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    run_indexed_jobs_with(jobs, threads, || (), |_, i| run(i))
}

/// Like [`run_indexed_jobs`], but each worker first builds a private
/// scratch state with `init` and threads it through its jobs.
///
/// This is the variant batched floods use: `init` clones the pristine
/// interference bank and allocates a private `FloodWorkspace` once per
/// worker, so the per-job hot path allocates nothing and no worker ever
/// observes another worker's mutations. Because each job still consumes
/// only its own index and seed, the per-worker state is scratch only —
/// results remain independent of which worker ran which job.
///
/// # Panics
///
/// Panics if `init` or a job closure panics (the poisoned result store
/// propagates).
///
/// # Examples
///
/// ```
/// use dimmer_sim::workqueue::run_indexed_jobs_with;
/// // Each worker owns a private accumulator; outputs stay job-ordered.
/// let out = run_indexed_jobs_with(4, 2, || 10usize, |acc, i| { *acc += i; i * 2 });
/// assert_eq!(out, vec![0, 2, 4, 6]);
/// ```
pub fn run_indexed_jobs_with<S, R, I, F>(jobs: usize, threads: usize, init: I, run: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(jobs, || None);
    let results = Mutex::new(slots);
    let cursor = AtomicUsize::new(0);
    let workers = threads.max(1).min(jobs.max(1));

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let mut state = init();
                // The shared job loop is a hot region: nothing in here may
                // allocate — per-worker state is built once by `init`.
                // lint: hot-begin
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs {
                        break;
                    }
                    let result = run(&mut state, i);
                    // lint: allow(P001) -- poisoned only if a job panicked; propagating is correct
                    results.lock().expect("result store poisoned")[i] = Some(result);
                }
                // lint: hot-end
            });
        }
    });

    // lint: allow(P001) -- poisoned only if a job panicked; propagating is correct
    let results = results.into_inner().expect("result store poisoned");
    results
        .into_iter()
        .map(|slot| {
            // lint: allow(P001) -- the scope joins every worker, so all slots are filled
            slot.expect("every job slot is filled after the scope joins")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn results_are_job_ordered_for_any_worker_count() {
        for threads in [0, 1, 2, 4, 64] {
            let out = run_indexed_jobs(10, threads, |i| i * 3);
            assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(run_indexed_jobs(0, 4, |i| i).is_empty());
    }

    #[test]
    fn init_runs_once_per_worker_not_per_job() {
        let inits = AtomicUsize::new(0);
        let out = run_indexed_jobs_with(
            16,
            3,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |jobs_seen, i| {
                *jobs_seen += 1;
                i
            },
        );
        assert_eq!(out, (0..16).collect::<Vec<_>>());
        let started = inits.load(Ordering::Relaxed);
        assert!(
            (1..=3).contains(&started),
            "one init per spawned worker, got {started}"
        );
    }

    #[test]
    fn worker_pool_is_clamped_to_job_count() {
        // 64 requested workers over 2 jobs must spawn at most 2 states.
        let inits = AtomicUsize::new(0);
        run_indexed_jobs_with(
            2,
            64,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
            },
            |_, _| (),
        );
        assert!(inits.load(Ordering::Relaxed) <= 2);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let out = run_indexed_jobs(100, 7, |i| i);
        let unique: BTreeSet<usize> = out.iter().copied().collect();
        assert_eq!(unique.len(), 100);
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn job_panics_propagate() {
        run_indexed_jobs(3, 2, |i| {
            if i == 1 {
                panic!("boom");
            }
            i
        });
    }
}
