//! Deterministic scoped worker pool: the atomic-cursor work queue shared
//! by every parallel layer of the workspace.
//!
//! Every parallel layer calls it directly — flood-level parallelism
//! ([`FloodSimulator::run_parallel`]) and trial-level parallelism (the
//! bench harness, and through it every grid `dimmerd` serves) through
//! [`run_indexed_jobs`], the training farm's episode rollouts
//! (`dimmer_rl::farm`) through [`stream_indexed_jobs`] — so they share one
//! implementation with one determinism argument:
//!
//! 1. **Dynamic distribution, static placement** — jobs are handed to
//!    workers through a shared cursor (long and short jobs share the pool
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
//! [`stream_indexed_jobs`] is the same pool as an ordered stream: its
//! results reach a consumer on the calling thread one at a time, in job
//! order, while the workers run ahead by at most a fixed window of jobs.
//! The argument carries over unchanged. A result is a pure function of its
//! index, and both the stopping rule (`more`) and the consumer see the
//! results in index order, so what is consumed depends neither on the
//! thread count, nor on the window, nor on the OS schedule. Those only
//! decide how far ahead the workers run, and how many speculative jobs
//! past the end are dropped unseen.
//!
//! [`FloodSimulator::run_parallel`]: https://docs.rs/dimmer-glossy

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

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

/// Runs indexed jobs on `threads` workers and hands their results, **in
/// job order**, to `consume` on the calling thread, until `more` says the
/// stream is over.
///
/// Jobs `0, 1, 2, …` are claimed in order from a shared cursor, but only
/// while job `i < consumed + window`, where `consumed` counts the results
/// already handed to `consume`: at most `window` results are ever
/// running or waiting, so memory is bounded. A finished result waits in
/// slot `i % window` of a ring allocated once.
///
/// `more(&result)` is asked of each result in job order, as soon as it and
/// every earlier job have finished. After the first `false`, no later job
/// is claimed, and `consume` runs on every result up to and including that
/// one. Jobs claimed before the `false` was known are dropped unseen; there
/// are at most `window - 1` of them, and none with one worker. If `more`
/// never answers `false`, the stream never ends.
///
/// `threads` and `window` are clamped to at least 1, and the workers to at
/// most `window`. Neither changes which results `consume` sees or in which
/// order (see the module docs); they only set how far the workers run
/// ahead of the consumer.
///
/// # Panics
///
/// A panic in `run` or `more` (on a worker) or in `consume` (on the
/// calling thread) stops the stream on both sides and is re-raised on the
/// calling thread with its original payload once every worker has
/// stopped.
///
/// # Examples
///
/// ```
/// use dimmer_sim::workqueue::stream_indexed_jobs;
/// // Squares in job order until one exceeds 20; any worker count agrees.
/// for threads in [1, 2, 8] {
///     let mut seen = Vec::new();
///     stream_indexed_jobs(threads, 4, |i| i * i, |&sq| sq <= 20, |sq| seen.push(sq));
///     assert_eq!(seen, vec![0, 1, 4, 9, 16, 25]);
/// }
/// ```
pub fn stream_indexed_jobs<R, F, M, C>(
    threads: usize,
    window: usize,
    run: F,
    more: M,
    mut consume: C,
) where
    R: Send,
    F: Fn(usize) -> R + Sync,
    M: FnMut(&R) -> bool + Send,
    C: FnMut(R),
{
    let window = window.max(1);
    let workers = threads.max(1).min(window);
    let mut ring = Vec::new();
    ring.resize_with(window, || None);
    let shared = Shared {
        stream: Mutex::new(Stream {
            ring,
            more,
            cursor: 0,
            decided: 0,
            consumed: 0,
            limit: usize::MAX,
            stop: false,
        }),
        changed: Condvar::new(),
    };

    std::thread::scope(|scope| {
        let worker = || {
            let _halt = StopOnUnwind(&shared);
            let mut stream = shared.lock();
            // The job loop is a hot region: results go into the ring
            // allocated above, so nothing in here may allocate.
            // lint: hot-begin
            loop {
                if stream.stop || stream.cursor >= stream.limit {
                    return;
                }
                if stream.cursor >= stream.consumed + window {
                    stream = shared.wait(stream);
                    continue;
                }
                let i = stream.cursor;
                stream.cursor += 1;
                drop(stream);
                let result = run(i);
                stream = shared.lock();
                if i < stream.limit {
                    stream.ring[i % window] = Some(result);
                    stream.decide();
                    shared.changed.notify_all();
                }
            }
            // lint: hot-end
        };
        let handles: Vec<_> = (0..workers).map(|_| scope.spawn(worker)).collect();

        let _halt = StopOnUnwind(&shared);
        let mut stream = shared.lock();
        while stream.consumed < stream.limit {
            if stream.consumed == stream.decided {
                if stream.stop {
                    break;
                }
                stream = shared.wait(stream);
                continue;
            }
            let slot = stream.consumed % window;
            let taken = stream.ring[slot].take();
            // lint: allow(P001) -- `decided` only passes finished jobs, and only this loop empties a slot
            let result = taken.expect("a decided job's slot holds its result");
            stream.consumed += 1;
            shared.changed.notify_all();
            drop(stream);
            consume(result);
            stream = shared.lock();
        }
        drop(stream);
        shared.stop();
        for handle in handles {
            if let Err(panic) = handle.join() {
                std::panic::resume_unwind(panic);
            }
        }
    });
}

/// The state one stream's workers and consumer share under one lock.
struct Stream<R, M> {
    /// Finished, not yet consumed results; job `i` waits in slot
    /// `i % window`.
    ring: Vec<Option<R>>,
    /// The stopping rule, asked of each result in job order.
    more: M,
    /// The next job to claim.
    cursor: usize,
    /// How many results `more` has been asked of (a job-order prefix).
    decided: usize,
    /// How many results have been handed to the consumer.
    consumed: usize,
    /// One past the last job to consume: the first `more == false`, plus 1.
    limit: usize,
    /// The consumer is done, or one side panicked.
    stop: bool,
}

impl<R, M: FnMut(&R) -> bool> Stream<R, M> {
    /// Asks `more` of every finished result past `decided`, in job order.
    fn decide(&mut self) {
        while self.decided < self.cursor.min(self.limit) {
            // `decided < cursor <= consumed + window`, so this slot holds
            // job `decided` once it has finished, and nothing otherwise.
            let Some(result) = &self.ring[self.decided % self.ring.len()] else {
                return;
            };
            let go = (self.more)(result);
            self.decided += 1;
            if !go {
                self.limit = self.decided;
            }
        }
    }
}

/// A stream's lock and the one condition variable both sides wait on.
struct Shared<R, M> {
    stream: Mutex<Stream<R, M>>,
    changed: Condvar,
}

impl<R, M> Shared<R, M> {
    // A panicking `more` poisons the lock, but no update is left half done
    // (`decided` moves only after `more` returns), and the stop flag, not
    // the poison, tells the other side; so both recover the guard.
    fn lock(&self) -> MutexGuard<'_, Stream<R, M>> {
        self.stream.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, guard: MutexGuard<'a, Stream<R, M>>) -> MutexGuard<'a, Stream<R, M>> {
        self.changed
            .wait(guard)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Tells every waiter that the stream is over.
    fn stop(&self) {
        self.lock().stop = true;
        self.changed.notify_all();
    }
}

/// Stops the stream if its thread unwinds, so that no side waits forever
/// on a peer that is gone.
struct StopOnUnwind<'a, R, M>(&'a Shared<R, M>);

impl<R, M> Drop for StopOnUnwind<'_, R, M> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.stop();
        }
    }
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

    /// Runs `f` on its own thread and returns how it panicked, failing the
    /// test instead of hanging it if `f` never returns.
    fn panic_message_of(f: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(f));
            let message = match outcome {
                Ok(()) => "no panic".to_string(),
                Err(panic) => panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "non-text panic".to_string()),
            };
            let _ = tx.send(message);
        });
        rx.recv_timeout(std::time::Duration::from_secs(60))
            .expect("the stream hung instead of re-raising the panic")
    }

    /// Streams `(i, i * 7 % 11)` until the running sum of the second
    /// values passes 100, returning what the consumer saw.
    fn stream_until_sum(threads: usize, window: usize) -> Vec<(usize, usize)> {
        let mut sum = 0;
        let mut seen = Vec::new();
        stream_indexed_jobs(
            threads,
            window,
            |i| (i, i * 7 % 11),
            move |&(_, v)| {
                sum += v;
                sum <= 100
            },
            |r| seen.push(r),
        );
        seen
    }

    #[test]
    fn stream_results_arrive_in_job_order() {
        for threads in [1, 2, 7] {
            let mut seen = Vec::new();
            stream_indexed_jobs(threads, 3, |i| i * 3, |&r| r < 60, |r| seen.push(r));
            assert_eq!(seen, (0..=20).map(|i| i * 3).collect::<Vec<_>>());
        }
    }

    #[test]
    fn stream_output_is_identical_for_any_thread_count_and_window() {
        let reference = stream_until_sum(1, 1);
        assert!(reference.len() > 10, "{reference:?}");
        for threads in [1, 2, 3, 7] {
            for window in [0, 1, 2, 5, 16] {
                assert_eq!(stream_until_sum(threads, window), reference);
            }
        }
    }

    #[test]
    fn stream_never_claims_a_job_past_the_window() {
        for (threads, window) in [(1, 1), (2, 2), (3, 4), (7, 3)] {
            let claimed = AtomicUsize::new(0);
            let violations = AtomicUsize::new(0);
            stream_indexed_jobs(
                threads,
                window,
                |i| {
                    claimed.fetch_max(i, Ordering::SeqCst);
                    i
                },
                |&i| i < 40,
                |k| {
                    // While result `k` is being consumed, `k + 1` results
                    // have been handed over, so no claim may reach
                    // `k + 1 + window`. Yielding gives the workers time
                    // to run up to that edge.
                    for _ in 0..20 {
                        std::thread::yield_now();
                    }
                    if claimed.load(Ordering::SeqCst) >= k + 1 + window {
                        violations.fetch_add(1, Ordering::SeqCst);
                    }
                },
            );
            assert_eq!(violations.load(Ordering::SeqCst), 0, "{threads}/{window}");
            assert!(claimed.load(Ordering::SeqCst) < 40 + window);
        }
    }

    #[test]
    fn one_worker_never_runs_a_job_past_the_first_false() {
        for window in [1, 2, 8] {
            let runs = AtomicUsize::new(0);
            let mut seen = Vec::new();
            stream_indexed_jobs(
                1,
                window,
                |i| {
                    runs.fetch_add(1, Ordering::SeqCst);
                    i
                },
                |&i| i != 9,
                |i| seen.push(i),
            );
            assert_eq!(seen, (0..10).collect::<Vec<_>>());
            assert_eq!(runs.load(Ordering::SeqCst), 10, "window {window}");
        }
    }

    #[test]
    fn a_panic_in_a_stream_job_reraises_on_the_caller() {
        for threads in [1, 3] {
            let message = panic_message_of(move || {
                stream_indexed_jobs(
                    threads,
                    2 * threads,
                    |i| {
                        if i == 5 {
                            panic!("job 5 failed");
                        }
                        i
                    },
                    |_| true,
                    |_| {},
                );
            });
            assert_eq!(message, "job 5 failed", "{threads} threads");
        }
    }

    #[test]
    fn a_panic_in_the_consumer_reraises_on_the_caller() {
        for threads in [1, 3] {
            let message = panic_message_of(move || {
                stream_indexed_jobs(
                    threads,
                    2,
                    |i| i,
                    |_| true,
                    |i| {
                        if i == 4 {
                            panic!("consumer failed");
                        }
                    },
                );
            });
            assert_eq!(message, "consumer failed", "{threads} threads");
        }
    }
}
