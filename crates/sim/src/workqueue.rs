//! Deterministic scoped worker pool: the one pool every parallel layer of
//! the workspace runs on.
//!
//! Grid trials (the bench harness, and through it every grid `dimmerd`
//! serves) and batched floods ([`FloodSimulator::run_parallel`]) collect
//! their results with [`run_indexed_jobs`]; the training farm's episode
//! rollouts (`dimmer_rl::farm`) take theirs one at a time with
//! [`stream_indexed_jobs`]. Both run the same ordered stream, with one
//! determinism argument:
//!
//! 1. **Dynamic distribution, ordered delivery.** Workers claim jobs
//!    `0, 1, 2, …` in order from a shared cursor, so long and short jobs
//!    share the pool, but claim job `i` only while `i < consumed + window`.
//!    A finished result waits in slot `i % window` of a ring until the
//!    consumer on the calling thread takes it, in job order.
//! 2. **No shared mutable job state.** A job receives only its index and a
//!    private per-worker scratch state built once by `init`; anything else
//!    it reads is shared by `&`, so its output is a pure function of its
//!    index.
//! 3. **Stopping in job order.** The stopping rule `more` is asked of the
//!    results in job order.
//!
//! So what is consumed depends neither on the thread count, nor on the
//! window, nor on the OS schedule. Those only decide how far ahead the
//! workers run, and how many speculative jobs past the end are dropped
//! unseen: parallelism is pure prefetch.
//!
//! One failure contract holds too: the first panic, in `init`, a job,
//! `more` or the consumer, stops the stream. No worker claims another job,
//! and the calling thread re-raises the panic with its own payload once
//! every worker has stopped.
//!
//! [`FloodSimulator::run_parallel`]: https://docs.rs/dimmer-glossy

use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};

/// Fans jobs `0..jobs` out across `threads` workers (at least one, at most
/// `jobs`) and returns the results **in job order**.
///
/// Each worker first builds a private scratch state with `init` (`|| ()`
/// for none) and threads it through its jobs: batched floods build a
/// `FloodWorkspace` and a clone of the interference bank there, so the
/// per-job hot path allocates nothing. Results do not depend on which
/// worker ran which job. The window spans every job, so a slow job never
/// stalls the others.
///
/// # Panics
///
/// If `init` or a job panics, no worker claims another job, and the panic
/// is re-raised here with its own payload once every worker has stopped.
///
/// # Examples
///
/// ```
/// use dimmer_sim::workqueue::run_indexed_jobs;
/// for threads in [1, 2, 8] {
///     // Each worker counts its own jobs; the outputs stay job-ordered.
///     let out = run_indexed_jobs(5, threads, || 0usize, |count, i| {
///         *count += 1;
///         i * i
///     });
///     assert_eq!(out, vec![0, 1, 4, 9, 16]);
/// }
/// ```
pub fn run_indexed_jobs<S, R, I, F>(jobs: usize, threads: usize, init: I, run: F) -> Vec<R>
where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
{
    let mut results = Vec::with_capacity(jobs);
    let collect = |result| results.push(result);
    run_stream(jobs, threads, jobs, init, run, |_| true, collect);
    results
}

/// Runs indexed jobs on `threads` workers and hands their results, **in
/// job order**, to `consume` on the calling thread, until `more` says the
/// stream is over.
///
/// At most `window` results are ever running or waiting, so memory is
/// bounded (see the module docs).
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
/// order; they only set how far the workers run ahead of the consumer.
///
/// # Panics
///
/// A panic in `run` or `more` (on a worker) or in `consume` (on the
/// calling thread) stops the stream on both sides and is re-raised on the
/// calling thread with its own payload once every worker has stopped.
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
pub fn stream_indexed_jobs<R, F, M, C>(threads: usize, window: usize, run: F, more: M, consume: C)
where
    R: Send,
    F: Fn(usize) -> R + Sync,
    M: FnMut(&R) -> bool + Send,
    C: FnMut(R),
{
    let job = |_: &mut (), i| run(i);
    run_stream(usize::MAX, threads, window, || (), job, more, consume);
}

/// The pool itself: streams jobs `0..jobs` to `consume` in job order on
/// `threads` workers, each with its own `init` state, within `window` jobs
/// of the consumer, until `more` answers `false` or every job is consumed.
fn run_stream<S, R, I, F, M, C>(
    jobs: usize,
    threads: usize,
    window: usize,
    init: I,
    run: F,
    more: M,
    mut consume: C,
) where
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) -> R + Sync,
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
            limit: jobs,
            stop: false,
        }),
        changed: Condvar::new(),
    };

    std::thread::scope(|scope| {
        let worker = || {
            let _halt = StopOnUnwind(&shared);
            let mut state = init();
            let mut stream = shared.lock();
            // The job loop is a hot region: results go into the ring
            // allocated above and scratch lives in `state`, so nothing in
            // here may allocate.
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
                let result = run(&mut state, i);
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
    /// One past the last job to consume: the job count, or the first
    /// `more == false` plus 1.
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
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn results_are_job_ordered_for_any_worker_count() {
        for threads in [0, 1, 2, 4, 64] {
            let out = run_indexed_jobs(10, threads, || (), |_, i| i * 3);
            assert_eq!(out, (0..10).map(|i| i * 3).collect::<Vec<_>>());
        }
        assert!(run_indexed_jobs(0, 4, || (), |_, i| i).is_empty());
    }

    #[test]
    fn init_runs_once_per_worker_not_per_job() {
        let inits = AtomicUsize::new(0);
        let out = run_indexed_jobs(
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
        run_indexed_jobs(
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
        // No job past the last index is claimed, not even speculatively.
        let runs = AtomicUsize::new(0);
        let out = run_indexed_jobs(
            100,
            7,
            || (),
            |_, i| {
                runs.fetch_add(1, Ordering::SeqCst);
                i
            },
        );
        let unique: BTreeSet<usize> = out.iter().copied().collect();
        assert_eq!(unique.len(), 100);
        assert_eq!(runs.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn a_worker_threads_its_state_through_every_job_it_runs() {
        // One worker runs every job in order, so its counter sees them all.
        let out = run_indexed_jobs(
            5,
            1,
            || 0usize,
            |count, _| {
                *count += 1;
                *count
            },
        );
        assert_eq!(out, vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn a_slow_first_job_does_not_stall_the_others() {
        const JOBS: usize = 12;
        let finished = AtomicUsize::new(0);
        let out = run_indexed_jobs(
            JOBS,
            2,
            || (),
            |_, i| {
                if i > 0 {
                    finished.fetch_add(1, Ordering::SeqCst);
                    return i;
                }
                // Job 0 returns once every other job has finished, which
                // a window narrower than the job count would hold back.
                for _ in 0..60_000 {
                    if finished.load(Ordering::SeqCst) == JOBS - 1 {
                        break;
                    }
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                finished.load(Ordering::SeqCst)
            },
        );
        assert_eq!(out[0], JOBS - 1, "the other jobs ran while job 0 waited");
        assert_eq!(out[1..], (1..JOBS).collect::<Vec<_>>());
    }

    #[test]
    fn one_worker_starts_no_job_after_a_panic() {
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let message = panic_message_of(|| {
            run_indexed_jobs(
                50,
                1,
                || (),
                |_, i| {
                    STARTED.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        panic!("job 5 exploded");
                    }
                    i
                },
            );
        });
        assert_eq!(message, "job 5 exploded");
        assert_eq!(STARTED.load(Ordering::SeqCst), 6);
    }

    #[test]
    fn a_panic_in_init_reraises_on_the_caller() {
        for threads in [1, 3] {
            let message = panic_message_of(move || {
                run_indexed_jobs(8, threads, || -> usize { panic!("init failed") }, |_, i| i);
            });
            assert_eq!(message, "init failed", "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate() {
        run_indexed_jobs(
            3,
            2,
            || (),
            |_, i| {
                if i == 1 {
                    panic!("boom");
                }
                i
            },
        );
    }

    #[test]
    fn the_first_panic_stops_the_pool_with_its_own_payload() {
        /// Sets its flag when the thread that owns it exits, after every
        /// frame of that thread has unwound.
        struct FlagOnThreadExit(&'static AtomicBool);
        impl Drop for FlagOnThreadExit {
            fn drop(&mut self) {
                self.0.store(true, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: std::cell::Cell<Option<FlagOnThreadExit>> = const { std::cell::Cell::new(None) };
        }
        static EXITED: AtomicBool = AtomicBool::new(false);
        static STARTED: AtomicUsize = AtomicUsize::new(0);
        let message = panic_message_of(|| {
            run_indexed_jobs(
                200,
                2,
                || (),
                |_, i| {
                    STARTED.fetch_add(1, Ordering::SeqCst);
                    if i == 5 {
                        ON_EXIT.set(Some(FlagOnThreadExit(&EXITED)));
                        panic!("job 5 exploded");
                    }
                    // A later job returns only once job 5's worker has exited,
                    // so its panic has stopped the pool by then.
                    for _ in 0..60_000 {
                        if i < 5 || EXITED.load(Ordering::SeqCst) {
                            break;
                        }
                        std::thread::sleep(std::time::Duration::from_millis(1));
                    }
                    i
                },
            );
        });
        assert_eq!(message, "job 5 exploded");
        // Jobs 0..=5, plus at most job 6, claimed by the other worker
        // before job 5's panic stopped the pool.
        let started = STARTED.load(Ordering::SeqCst);
        assert!((6..=7).contains(&started), "{started} jobs started");
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
    fn a_first_false_ends_the_stream_after_one_result() {
        for threads in [1, 4] {
            let mut seen = Vec::new();
            stream_indexed_jobs(threads, 8, |i| i + 100, |_| false, |r| seen.push(r));
            assert_eq!(seen, vec![100], "{threads} threads");
        }
    }

    #[test]
    fn a_panic_in_the_stopping_rule_reraises_on_the_caller() {
        for threads in [1, 3] {
            let message = panic_message_of(move || {
                stream_indexed_jobs(
                    threads,
                    4,
                    |i| i,
                    |&i| {
                        if i == 3 {
                            panic!("stopping rule failed");
                        }
                        true
                    },
                    |_| {},
                );
            });
            assert_eq!(message, "stopping rule failed", "{threads} threads");
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
