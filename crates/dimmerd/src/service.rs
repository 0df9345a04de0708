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

use std::collections::{BTreeMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;

use dimmer_bench::harness::RunOptions;

use crate::cache::{MemoCache, WorldCache};
use crate::json::Json;
use crate::proto::{error_reply, ok_reply, Request};
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
    /// Byte budget of the result memo cache.
    pub memo_budget_bytes: usize,
}

impl Default for DaemonConfig {
    fn default() -> Self {
        DaemonConfig {
            queue_limit: 32,
            threads: 2,
            workers: 1,
            memo_budget_bytes: 64 * 1024 * 1024,
        }
    }
}

/// Lifecycle of one submitted job.
#[derive(Debug, Clone)]
enum JobState {
    Queued(ScenarioSpec),
    Running,
    Done(Arc<String>),
    Failed(String),
}

#[derive(Debug, Default)]
struct Counters {
    submitted: u64,
    completed: u64,
    failed: u64,
    busy_rejections: u64,
}

#[derive(Debug)]
struct State {
    queue: VecDeque<u64>,
    jobs: BTreeMap<u64, JobState>,
    next_job: u64,
    memo: MemoCache,
    worlds: WorldCache,
    counters: Counters,
    /// Jobs currently executing on some worker (popped but not published).
    running: usize,
    draining: bool,
    stopped: bool,
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
        thread::spawn(move || daemon.run_executor())
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

    fn run_executor(&self) {
        loop {
            let (job, spec) = {
                let mut state = self.lock();
                loop {
                    if let Some(job) = state.queue.pop_front() {
                        match state.jobs.get(&job).cloned() {
                            Some(JobState::Queued(spec)) => {
                                state.jobs.insert(job, JobState::Running);
                                state.running += 1;
                                break (job, spec);
                            }
                            _ => continue,
                        }
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
            self.execute(job, &spec);
        }
    }

    /// Runs one job to completion and publishes its result.
    fn execute(&self, job: u64, spec: &ScenarioSpec) {
        let outcome = self.run_spec(spec);
        let mut state = self.lock();
        match outcome {
            Ok(report) => {
                state.jobs.insert(job, JobState::Done(report));
                state.counters.completed += 1;
            }
            Err(message) => {
                state.jobs.insert(job, JobState::Failed(message));
                state.counters.failed += 1;
            }
        }
        state.running -= 1;
        self.inner.job_done.notify_all();
    }

    /// Runs a spec through memoization and, on a miss, the scheduler.
    fn run_spec(&self, spec: &ScenarioSpec) -> Result<Arc<String>, String> {
        let hash = spec.hash()?;
        let seed = spec.resolved_seed()?;
        let trials = spec.trials()?;
        // Re-check the memo: an identical job submitted earlier may have
        // completed while this one sat in the queue. `submit` already
        // counted this job's lookup, so the re-check counts nothing.
        if let Some(report) = self.lock().memo.recheck(hash, seed) {
            return Ok(report);
        }
        // Resolve worlds under the lock (fast when warm); run the grid
        // outside it so status/stats stay responsive during simulation.
        let grid = spec.build(&mut self.lock().worlds)?;
        let report = grid.run(&RunOptions {
            trials,
            threads: self.inner.config.threads,
            seed,
        });
        let report = Arc::new(report.to_json());
        self.lock().memo.insert(hash, seed, report.clone());
        Ok(report)
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
        if let Some(report) = state.memo.get(hash, seed) {
            let job = state.next_job;
            state.next_job += 1;
            state.jobs.insert(job, JobState::Done(report));
            state.counters.submitted += 1;
            state.counters.completed += 1;
            return ok_reply(vec![
                ("job".to_string(), Json::Int(job)),
                ("state".to_string(), Json::Str("done".to_string())),
            ]);
        }
        if state.queue.len() >= self.inner.config.queue_limit {
            state.counters.busy_rejections += 1;
            return error_reply("busy");
        }
        let job = state.next_job;
        state.next_job += 1;
        state.jobs.insert(job, JobState::Queued(spec.clone()));
        state.queue.push_back(job);
        state.counters.submitted += 1;
        self.inner.work_ready.notify_one();
        ok_reply(vec![
            ("job".to_string(), Json::Int(job)),
            ("state".to_string(), Json::Str("queued".to_string())),
        ])
    }

    fn status(&self, job: u64) -> String {
        let state = self.lock();
        let label = match state.jobs.get(&job) {
            None => return error_reply("unknown job"),
            Some(JobState::Queued(_)) => "queued",
            Some(JobState::Running) => "running",
            Some(JobState::Done(_)) => "done",
            Some(JobState::Failed(_)) => "failed",
        };
        ok_reply(vec![
            ("job".to_string(), Json::Int(job)),
            ("state".to_string(), Json::Str(label.to_string())),
        ])
    }

    fn result(&self, job: u64) -> String {
        let state = self.lock();
        match state.jobs.get(&job) {
            None => error_reply("unknown job"),
            Some(JobState::Queued(_)) | Some(JobState::Running) => error_reply("not-ready"),
            Some(JobState::Failed(message)) => error_reply(&format!("job failed: {message}")),
            Some(JobState::Done(report)) => ok_reply(vec![
                ("job".to_string(), Json::Int(job)),
                ("report".to_string(), Json::Str(report.as_str().to_string())),
            ]),
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

    /// Blocks until job `job` leaves the queued/running states (used by
    /// in-process tests; network clients poll `status` instead).
    pub fn wait_for_job(&self, job: u64) {
        let mut state = self.lock();
        loop {
            match state.jobs.get(&job) {
                Some(JobState::Queued(_)) | Some(JobState::Running) => {}
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

    fn daemon(queue_limit: usize) -> Daemon {
        Daemon::new(DaemonConfig {
            queue_limit,
            threads: 2,
            workers: 1,
            memo_budget_bytes: 16 * 1024 * 1024,
        })
    }

    fn submit_line(d: &Daemon, line: &str) -> Json {
        let (reply, _) = d.handle_line(line);
        json::parse(&reply).unwrap()
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
}
