//! The daemon core: a bounded job queue, a configurable executor worker
//! pool, and the warm/memo caches — everything except the TCP plumbing.
//!
//! Concurrency model: connection handlers call [`Daemon::handle_request`]
//! under a single state mutex and return quickly (submissions only
//! enqueue; memo hits answer instantly). A pool of **executor threads**
//! ([`Daemon::spawn_executors`], `--workers N`) pops the queue in FIFO
//! order and runs each scenario through the shared `dimmer-bench` grid
//! runner. Because every job's report is a pure function of
//! `(scenario_hash, seed)` — the grid runner seeds trials statelessly and
//! assembles reports in grid order — the worker count never changes a
//! byte of any report; the worst concurrency artifact is two workers
//! computing the same memo entry, and the second insert overwrites the
//! first with identical bytes. A full queue rejects new work with an
//! explicit `busy` error — bounded memory, visible backpressure — and
//! `shutdown` stops intake, lets the pool drain what was accepted, then
//! terminates it: a worker only flips the daemon to *stopped* once the
//! queue is empty **and** no sibling still has a job in flight.
//!
//! Retention is bounded too. A queued job's spec lives in the queue, and a
//! finished job keeps only its memo key, so the memo's byte budget bounds
//! every report byte the daemon holds. The last `FINISHED_WINDOW`
//! finished jobs stay answerable; an older id answers `expired`.

use std::collections::{BTreeMap, VecDeque};
use std::panic::AssertUnwindSafe;
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use dimmer_bench::harness::RunOptions;

use crate::cache::{MemoCache, WorldCache};
use crate::json::Json;
use crate::proto::{error_reply, ok_reply, result_reply, Request};
use crate::scenario::ScenarioSpec;

/// Daemon tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DaemonConfig {
    /// Maximum queued (not yet running) jobs before `submit` sheds load.
    pub queue_limit: usize,
    /// Worker threads the scheduler fans each grid out to (does not
    /// affect report bytes).
    pub threads: usize,
    /// Executor threads draining the job queue concurrently (does not
    /// affect report bytes either — see the module docs).
    pub workers: usize,
    /// Byte budget of the result memo cache, the only owner of report
    /// bytes (default 256 KiB, room for every catalogue grid's report at
    /// both scales and default seeds).
    pub memo_budget_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            queue_limit: 32,
            threads: 2,
            workers: 1,
            memo_budget_bytes: 256 * 1024,
        }
    }
}

/// How many finished (done or failed) jobs stay answerable, in completion
/// order; `status` and `result` of an older job answer `expired`. At the
/// ~640 requests/s a 2-core host serves, 1 024 jobs last about 1.6 s,
/// well past `dimmer-cli`'s 100 ms poll; a 64-job window used no less
/// memory.
const FINISHED_WINDOW: usize = 1024;

/// Lifecycle of one submitted job. A done job names its report by memo
/// key; the bytes live in the memo only.
#[derive(Debug)]
enum JobState {
    Queued,
    Running,
    Done { hash: u64, seed: u64 },
    Failed(String),
}

#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    busy_rejections: u64,
    expired: u64,
}

#[derive(Debug)]
struct State {
    /// Queued jobs in FIFO order, each with the spec it will run.
    queue: VecDeque<(u64, ScenarioSpec)>,
    jobs: BTreeMap<u64, JobState>,
    /// Finished job ids in completion order, at most `FINISHED_WINDOW`.
    finished: VecDeque<u64>,
    next_job: u64,
    memo: MemoCache,
    worlds: WorldCache,
    counters: Counters,
    /// Jobs currently executing on some worker (popped but not published).
    running: usize,
    draining: bool,
    stopped: bool,
}

impl State {
    /// Hands out the next job id.
    fn next_id(&mut self) -> u64 {
        let job = self.next_job;
        self.next_job += 1;
        self.counters.submitted += 1;
        job
    }

    /// Whether `job` was ever handed out; such an id missing from the
    /// table has expired.
    fn handed_out(&self, job: u64) -> bool {
        (1..self.next_job).contains(&job)
    }

    /// Publishes a job's outcome — its report's memo key or its failure —
    /// and expires the oldest finished job beyond the window.
    fn finish(&mut self, job: u64, outcome: Result<(u64, u64), String>) {
        let state = match outcome {
            Ok((hash, seed)) => {
                self.counters.completed += 1;
                JobState::Done { hash, seed }
            }
            Err(message) => {
                self.counters.failed += 1;
                JobState::Failed(message)
            }
        };
        self.jobs.insert(job, state);
        self.finished.push_back(job);
        if self.finished.len() > FINISHED_WINDOW {
            if let Some(oldest) = self.finished.pop_front() {
                self.jobs.remove(&oldest);
                self.counters.expired += 1;
            }
        }
    }
}

/// The shared daemon service. Cloneable handle (`Arc` inside); spawn the
/// executor pool once with [`Daemon::spawn_executors`] (or a single
/// worker with [`Daemon::spawn_executor`]).
#[derive(Debug, Clone)]
pub struct Daemon {
    inner: Arc<Inner>,
}

#[derive(Debug)]
struct Inner {
    state: Mutex<State>,
    work_ready: Condvar,
    job_done: Condvar,
    config: DaemonConfig,
}

impl Daemon {
    /// Creates a daemon with the given knobs (no executor running yet).
    pub fn new(config: DaemonConfig) -> Self {
        Daemon {
            inner: Arc::new(Inner {
                state: Mutex::new(State {
                    queue: VecDeque::new(),
                    jobs: BTreeMap::new(),
                    finished: VecDeque::new(),
                    next_job: 1,
                    memo: MemoCache::new(config.memo_budget_bytes),
                    worlds: WorldCache::new(),
                    counters: Counters::default(),
                    running: 0,
                    draining: false,
                    stopped: false,
                }),
                work_ready: Condvar::new(),
                job_done: Condvar::new(),
                config,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        match self.inner.state.lock() {
            Ok(guard) => guard,
            Err(poisoned) => poisoned.into_inner(),
        }
    }

    /// Starts one executor thread draining the queue; returns its handle.
    pub fn spawn_executor(&self) -> thread::JoinHandle<()> {
        let daemon = self.clone();
        thread::spawn(move || daemon.run_executor(|spec| daemon.run_spec(spec)))
    }

    /// Starts a pool of `workers.max(1)` executor threads sharing the
    /// bounded queue; returns their handles (join all after shutdown).
    ///
    /// The worker count never changes report bytes — see the module docs
    /// for why — it only changes how many queued scenarios execute
    /// concurrently.
    pub fn spawn_executors(&self, workers: usize) -> Vec<thread::JoinHandle<()>> {
        (0..workers.max(1)).map(|_| self.spawn_executor()).collect()
    }

    /// The executor loop; `run` runs each job's spec (tests substitute a
    /// failing one).
    fn run_executor(&self, run: impl Fn(&ScenarioSpec) -> Result<(u64, u64), String>) {
        loop {
            let (job, spec) = {
                let mut state = self.lock();
                loop {
                    if let Some((job, spec)) = state.queue.pop_front() {
                        state.jobs.insert(job, JobState::Running);
                        state.running += 1;
                        break (job, spec);
                    }
                    if state.draining {
                        // Drained only once no sibling worker still has a
                        // job in flight; an earlier-exiting worker leaves
                        // `stopped` for the last one to flip.
                        if state.running == 0 {
                            state.stopped = true;
                        }
                        self.inner.job_done.notify_all();
                        // Wake sibling workers parked on the condvar so
                        // they can observe `draining` and exit too.
                        self.inner.work_ready.notify_all();
                        return;
                    }
                    state = match self.inner.work_ready.wait(state) {
                        Ok(guard) => guard,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                }
            };
            self.execute(job, || run(&spec));
        }
    }

    /// Runs one job to completion and publishes its result. A panic fails
    /// the job instead of the executor, so the job still finishes and the
    /// `running` count still drops.
    fn execute(&self, job: u64, run: impl FnOnce() -> Result<(u64, u64), String>) {
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(run)).unwrap_or_else(|panic| {
            let message = panic
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("a non-text payload");
            Err(format!("job panicked: {message}"))
        });
        let mut state = self.lock();
        state.finish(job, outcome);
        state.running -= 1;
        self.inner.job_done.notify_all();
    }

    /// Runs a spec through memoization and, on a miss, the scheduler;
    /// returns the memo key its report is stored under.
    fn run_spec(&self, spec: &ScenarioSpec) -> Result<(u64, u64), String> {
        let hash = spec.hash()?;
        let seed = spec.resolved_seed()?;
        let trials = spec.trials()?;
        // Re-check the memo: an identical job submitted earlier may have
        // completed while this one sat in the queue. `submit` already
        // counted this job's lookup, so the re-check counts nothing.
        if self.lock().memo.recheck(hash, seed).is_some() {
            return Ok((hash, seed));
        }
        // Resolve worlds under the lock (fast when warm); run the grid
        // outside it so status/stats stay responsive during simulation.
        let grid = spec.build(&mut self.lock().worlds)?;
        let report = grid.run(&RunOptions {
            trials,
            threads: self.inner.config.threads,
            seed,
        });
        // Stored as an exact-size copy, so the memo's byte count is the
        // heap the report pins; `to_json`'s doubling buffer is freed with
        // the run.
        let report: Arc<str> = Arc::from(report.to_json());
        let bytes = report.len();
        if self.lock().memo.insert(hash, seed, report) {
            Ok((hash, seed))
        } else {
            Err(format!(
                "the {bytes}-byte report exceeds the {}-byte memo budget (--memo-bytes)",
                self.inner.config.memo_budget_bytes
            ))
        }
    }

    /// Handles one parsed request, returning the reply line (without the
    /// trailing newline) and whether this request initiated shutdown.
    pub fn handle_request(&self, request: &Request) -> (String, bool) {
        match request {
            Request::Submit(spec) => (self.submit(spec), false),
            Request::Status { job } => (self.status(*job), false),
            Request::Result { job } => (self.result(*job), false),
            Request::Stats => (self.stats(), false),
            Request::Shutdown => (self.shutdown(), true),
        }
    }

    /// Parses and handles one request line.
    pub fn handle_line(&self, line: &str) -> (String, bool) {
        match crate::proto::parse_request(line) {
            Ok(request) => self.handle_request(&request),
            Err(message) => (error_reply(&message), false),
        }
    }

    fn submit(&self, spec: &ScenarioSpec) -> String {
        let (hash, seed) = match (spec.hash(), spec.resolved_seed()) {
            (Ok(h), Ok(s)) => (h, s),
            (Err(e), _) | (_, Err(e)) => return error_reply(&e),
        };
        let mut state = self.lock();
        if state.draining {
            return error_reply("shutting-down");
        }
        // Memo hit: answer with an already-done job, no queue round-trip.
        if state.memo.get(hash, seed).is_some() {
            let job = state.next_id();
            state.finish(job, Ok((hash, seed)));
            return ok_reply(vec![
                ("job".to_string(), Json::Int(job)),
                ("state".to_string(), Json::Str("done".to_string())),
            ]);
        }
        if state.queue.len() >= self.inner.config.queue_limit {
            state.counters.busy_rejections += 1;
            return error_reply("busy");
        }
        let job = state.next_id();
        state.jobs.insert(job, JobState::Queued);
        state.queue.push_back((job, spec.clone()));
        self.inner.work_ready.notify_one();
        ok_reply(vec![
            ("job".to_string(), Json::Int(job)),
            ("state".to_string(), Json::Str("queued".to_string())),
        ])
    }

    fn status(&self, job: u64) -> String {
        let state = self.lock();
        let label = match state.jobs.get(&job) {
            Some(JobState::Queued) => "queued",
            Some(JobState::Running) => "running",
            Some(JobState::Done { .. }) => "done",
            Some(JobState::Failed(_)) => "failed",
            None if state.handed_out(job) => "expired",
            None => return error_reply("unknown job"),
        };
        ok_reply(vec![
            ("job".to_string(), Json::Int(job)),
            ("state".to_string(), Json::Str(label.to_string())),
        ])
    }

    fn result(&self, job: u64) -> String {
        // Escape the report outside the lock; the memo may evict it
        // meanwhile, but this reply's `Arc` keeps the bytes alive.
        let report = {
            let mut state = self.lock();
            match state.jobs.get(&job) {
                Some(JobState::Queued | JobState::Running) => return error_reply("not-ready"),
                Some(JobState::Failed(message)) => {
                    return error_reply(&format!("job failed: {message}"))
                }
                Some(&JobState::Done { hash, seed }) => state.memo.recheck(hash, seed),
                None if state.handed_out(job) => None,
                None => return error_reply("unknown job"),
            }
        };
        match report {
            Some(report) => result_reply(job, &report),
            None => error_reply("expired"),
        }
    }

    fn stats(&self) -> String {
        let state = self.lock();
        let memo = state.memo.stats();
        let (world_hits, world_misses) = state.worlds.counters();
        ok_reply(vec![
            ("submitted".to_string(), Json::Int(state.counters.submitted)),
            ("completed".to_string(), Json::Int(state.counters.completed)),
            ("failed".to_string(), Json::Int(state.counters.failed)),
            (
                "busy_rejections".to_string(),
                Json::Int(state.counters.busy_rejections),
            ),
            ("queue_len".to_string(), Json::Int(state.queue.len() as u64)),
            (
                "jobs_retained".to_string(),
                Json::Int(state.finished.len() as u64),
            ),
            (
                "jobs_expired".to_string(),
                Json::Int(state.counters.expired),
            ),
            ("memo_hits".to_string(), Json::Int(memo.hits)),
            ("memo_misses".to_string(), Json::Int(memo.misses)),
            ("memo_evictions".to_string(), Json::Int(memo.evictions)),
            ("memo_entries".to_string(), Json::Int(memo.entries as u64)),
            ("memo_bytes".to_string(), Json::Int(memo.bytes as u64)),
            (
                "memo_budget_bytes".to_string(),
                Json::Int(memo.budget_bytes as u64),
            ),
            ("world_hits".to_string(), Json::Int(world_hits)),
            ("world_misses".to_string(), Json::Int(world_misses)),
            (
                "world_bytes".to_string(),
                Json::Int(state.worlds.resident_bytes() as u64),
            ),
        ])
    }

    fn shutdown(&self) -> String {
        let mut state = self.lock();
        state.draining = true;
        self.inner.work_ready.notify_all();
        ok_reply(vec![(
            "state".to_string(),
            Json::Str("draining".to_string()),
        )])
    }

    /// Whether the executor has drained the queue after `shutdown`.
    pub fn is_stopped(&self) -> bool {
        self.lock().stopped
    }

    /// Blocks until the executors have drained the queue after
    /// `shutdown` (the server's accept-loop waker waits here).
    pub fn wait_until_stopped(&self) {
        let mut state = self.lock();
        while !state.stopped {
            state = match self.inner.job_done.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// Blocks until job `job` leaves the queued/running states (used by
    /// in-process tests; network clients poll `status` instead).
    pub fn wait_for_job(&self, job: u64) {
        let mut state = self.lock();
        loop {
            match state.jobs.get(&job) {
                Some(JobState::Queued | JobState::Running) => {}
                _ => return,
            }
            state = match self.inner.job_done.wait(state) {
                Ok(guard) => guard,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;
    use dimmer_bench::harness::ScenarioGrid;

    fn daemon(queue_limit: usize) -> Daemon {
        daemon_with_budget(queue_limit, 16 * 1024 * 1024)
    }

    fn daemon_with_budget(queue_limit: usize, memo_budget_bytes: usize) -> Daemon {
        Daemon::new(DaemonConfig {
            queue_limit,
            threads: 2,
            workers: 1,
            memo_budget_bytes,
        })
    }

    fn submit_line(d: &Daemon, line: &str) -> Json {
        let (reply, _) = d.handle_line(line);
        json::parse(&reply).unwrap()
    }

    fn submit_seed(d: &Daemon, seed: u64) -> u64 {
        let line = format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#);
        let reply = submit_line(d, &line);
        let job = reply.get("job").and_then(Json::as_u64);
        job.unwrap_or_else(|| panic!("submit refused: {reply:?}"))
    }

    fn status_of(d: &Daemon, job: u64) -> Json {
        submit_line(d, &format!(r#"{{"cmd":"status","job":{job}}}"#))
    }

    fn result_of(d: &Daemon, job: u64) -> Json {
        submit_line(d, &format!(r#"{{"cmd":"result","job":{job}}}"#))
    }

    fn error_of(reply: &Json) -> Option<&str> {
        reply.get("error").and_then(Json::as_str)
    }

    #[test]
    fn submit_run_result_round_trip() {
        let d = daemon(4);
        let executor = d.spawn_executor();
        let reply = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        assert_eq!(reply.get("ok"), Some(&Json::Bool(true)));
        let job = reply.get("job").and_then(Json::as_u64).unwrap();
        d.wait_for_job(job);
        let result = submit_line(&d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(result.get("ok"), Some(&Json::Bool(true)));
        let report = result.get("report").and_then(Json::as_str).unwrap();
        assert!(
            report.contains("\"grid\": \"table1\""),
            "unescaped report JSON"
        );
        // Resubmitting the identical spec answers instantly from the memo.
        let again = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        assert_eq!(
            again.get("state").and_then(Json::as_str),
            Some("done"),
            "memo hit answers at submit time"
        );
        let (_, is_shutdown) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(is_shutdown);
        executor.join().unwrap();
        assert!(d.is_stopped());
    }

    #[test]
    fn a_cold_job_counts_one_memo_miss() {
        let d = daemon(4);
        let executor = d.spawn_executor();
        let memo = |d: &Daemon| {
            let stats = submit_line(d, r#"{"cmd":"stats"}"#);
            let count = |key: &str| stats.get(key).and_then(Json::as_u64);
            (count("memo_hits"), count("memo_misses"))
        };
        let reply = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        d.wait_for_job(reply.get("job").and_then(Json::as_u64).unwrap());
        assert_eq!(memo(&d), (Some(0), Some(1)), "one cold job, one miss");
        submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        assert_eq!(memo(&d), (Some(1), Some(1)), "a resubmit is one hit");
        d.handle_line(r#"{"cmd":"shutdown"}"#);
        executor.join().unwrap();
    }

    #[test]
    fn full_queue_sheds_load_with_busy() {
        // No executor: everything stays queued.
        let d = daemon(1);
        let first = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        assert_eq!(first.get("ok"), Some(&Json::Bool(true)));
        let second = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":9}}"#);
        assert_eq!(second.get("ok"), Some(&Json::Bool(false)));
        assert_eq!(second.get("error").and_then(Json::as_str), Some("busy"));
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("busy_rejections").and_then(Json::as_u64), Some(1));
        assert_eq!(stats.get("queue_len").and_then(Json::as_u64), Some(1));
    }

    #[test]
    fn unknown_jobs_and_pending_results_error_cleanly() {
        let d = daemon(4);
        let status = submit_line(&d, r#"{"cmd":"status","job":99}"#);
        assert_eq!(
            status.get("error").and_then(Json::as_str),
            Some("unknown job")
        );
        submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        let result = submit_line(&d, r#"{"cmd":"result","job":1}"#);
        assert_eq!(
            result.get("error").and_then(Json::as_str),
            Some("not-ready")
        );
    }

    #[test]
    fn worker_pool_drains_the_queue_and_stops_only_after_the_last_job() {
        let d = daemon(8);
        let executors = d.spawn_executors(4);
        assert_eq!(executors.len(), 4);
        for seed in 0..6u64 {
            let reply = submit_line(
                &d,
                &format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#),
            );
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
        }
        let (_, is_shutdown) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(is_shutdown);
        for executor in executors {
            executor.join().unwrap();
        }
        assert!(d.is_stopped(), "last worker out flips stopped");
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(6));
        assert_eq!(stats.get("failed").and_then(Json::as_u64), Some(0));
        assert_eq!(stats.get("queue_len").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn shutdown_drains_accepted_work_then_stops() {
        let d = daemon(8);
        submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1"}}"#);
        submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":2}}"#);
        let (reply, _) = d.handle_line(r#"{"cmd":"shutdown"}"#);
        assert!(reply.contains("draining"));
        // Late submissions are refused while draining.
        let late = submit_line(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":3}}"#);
        assert_eq!(
            late.get("error").and_then(Json::as_str),
            Some("shutting-down")
        );
        // Executor started after shutdown still drains the backlog.
        let executor = d.spawn_executor();
        executor.join().unwrap();
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(2));
        assert_eq!(stats.get("queue_len").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn finished_jobs_beyond_the_window_expire() {
        let d = daemon(4);
        let executor = d.spawn_executor();
        d.wait_for_job(submit_seed(&d, 1));
        // Job 1 ran cold; every resubmission is a memo hit, done at once.
        for _ in 0..=FINISHED_WINDOW {
            submit_seed(&d, 1);
        }
        let last = FINISHED_WINDOW as u64 + 2;
        for job in [1, 2] {
            let status = status_of(&d, job);
            assert_eq!(status.get("state").and_then(Json::as_str), Some("expired"));
            assert_eq!(error_of(&result_of(&d, job)), Some("expired"));
        }
        for job in [3, last] {
            let status = status_of(&d, job);
            assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
            assert_eq!(result_of(&d, job).get("ok"), Some(&Json::Bool(true)));
        }
        for unknown in [0, last + 1] {
            assert_eq!(error_of(&status_of(&d, unknown)), Some("unknown job"));
            assert_eq!(error_of(&result_of(&d, unknown)), Some("unknown job"));
        }
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        let count = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!(count("jobs_retained"), Some(FINISHED_WINDOW as u64));
        assert_eq!(count("jobs_expired"), Some(2));
        assert_eq!(count("completed"), Some(last));
        d.handle_line(r#"{"cmd":"shutdown"}"#);
        executor.join().unwrap();
    }

    #[test]
    fn the_memo_budget_bounds_every_retained_report_byte() {
        // Size the budget from the reports themselves: two fit, three do not.
        let sizer = daemon(4);
        let executor = sizer.spawn_executor();
        let mut largest = 0;
        for seed in 1..=3 {
            let job = submit_seed(&sizer, seed);
            sizer.wait_for_job(job);
            let result = result_of(&sizer, job);
            let report = result.get("report").and_then(Json::as_str).unwrap();
            largest = largest.max(report.len());
        }
        sizer.handle_line(r#"{"cmd":"shutdown"}"#);
        executor.join().unwrap();

        let budget = 2 * largest;
        let d = daemon_with_budget(4, budget);
        let executor = d.spawn_executor();
        let jobs: Vec<u64> = (1..=3).map(|seed| submit_seed(&d, seed)).collect();
        for &job in &jobs {
            d.wait_for_job(job);
        }
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        let count = |key: &str| stats.get(key).and_then(Json::as_u64).unwrap();
        assert_eq!(count("memo_budget_bytes"), budget as u64);
        assert!(
            count("memo_bytes") <= count("memo_budget_bytes"),
            "{stats:?}"
        );
        assert_eq!(count("memo_evictions"), 1);
        // The first report was evicted: its job is done, its bytes gone.
        let status = status_of(&d, jobs[0]);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
        assert_eq!(error_of(&result_of(&d, jobs[0])), Some("expired"));
        assert_eq!(result_of(&d, jobs[2]).get("ok"), Some(&Json::Bool(true)));
        d.handle_line(r#"{"cmd":"shutdown"}"#);
        executor.join().unwrap();
    }

    #[test]
    fn a_report_larger_than_the_budget_fails_its_job_and_the_daemon_keeps_serving() {
        let d = daemon_with_budget(4, 64);
        let executor = d.spawn_executor();
        let job = submit_seed(&d, 1);
        d.wait_for_job(job);
        let status = status_of(&d, job);
        assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
        let error = result_of(&d, job);
        let error = error_of(&error).unwrap();
        assert!(error.contains("exceeds the 64-byte memo budget"), "{error}");
        // The next submission is accepted and runs, and stats still answer.
        let next = submit_seed(&d, 2);
        d.wait_for_job(next);
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        let count = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!((count("failed"), count("memo_bytes")), (Some(2), Some(0)));
        d.handle_line(r#"{"cmd":"shutdown"}"#);
        executor.join().unwrap();
    }

    #[test]
    fn a_deeply_nested_line_is_refused_and_the_daemon_keeps_serving() {
        let d = daemon(4);
        let reply = submit_line(&d, &"[".repeat(200_000));
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("nesting"), "{error}");
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
    }

    #[test]
    fn an_oversized_trial_count_is_refused_before_it_is_queued() {
        let d = daemon(4);
        let reply = submit_line(
            &d,
            r#"{"cmd":"submit","spec":{"grid":"table1","trials":1099511627776}}"#,
        );
        assert_eq!(reply.get("ok"), Some(&Json::Bool(false)));
        let error = reply.get("error").and_then(Json::as_str).unwrap();
        assert!(error.contains("spec.trials must be at most"), "{error}");
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        assert_eq!(stats.get("ok"), Some(&Json::Bool(true)));
        assert_eq!(stats.get("queue_len").and_then(Json::as_u64), Some(0));
    }

    #[test]
    fn a_panicking_job_fails_and_the_same_executor_serves_the_next_and_drains() {
        let d = daemon(4);
        let doomed = submit_seed(&d, 13);
        let next = submit_seed(&d, 14);
        let doomed_trial = submit_seed(&d, 15);
        d.handle_line(r#"{"cmd":"shutdown"}"#);
        // Drain on this thread: if the panic escaped the job, it would
        // escape this call and fail the test.
        d.run_executor(|spec| match spec.resolved_seed() {
            Ok(13) => panic!("grid exploded"),
            Ok(15) => {
                // The panic happens in a trial, on a worker of the pool.
                let mut grid = ScenarioGrid::new("doomed");
                grid.push_cell("cell", Vec::new(), |_| panic!("trial exploded"));
                grid.run(&RunOptions {
                    trials: 8,
                    threads: 2,
                    seed: 15,
                });
                Ok((0, 15))
            }
            _ => d.run_spec(spec),
        });
        for (job, message) in [(doomed, "grid exploded"), (doomed_trial, "trial exploded")] {
            let status = status_of(&d, job);
            assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
            assert_eq!(
                error_of(&result_of(&d, job)),
                Some(format!("job failed: job panicked: {message}").as_str())
            );
        }
        assert_eq!(result_of(&d, next).get("ok"), Some(&Json::Bool(true)));
        assert_eq!(d.lock().running, 0);
        assert!(d.is_stopped(), "the executor drained after the panics");
        let stats = submit_line(&d, r#"{"cmd":"stats"}"#);
        let count = |key: &str| stats.get(key).and_then(Json::as_u64);
        assert_eq!((count("completed"), count("failed")), (Some(1), Some(2)));
    }
}
