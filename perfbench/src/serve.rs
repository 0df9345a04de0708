//! `serve`: `dimmerd` in-process on loopback (`serve` plus a `Daemon` with
//! one executor and one scheduler thread), driven closed-loop by
//! [`CLIENTS`] connections.
//!
//! About 90 % of requests are `hit`s — `submit` of a spec memoized during
//! set-up, then `result` — and about 10 % are `cold` — `submit` of a quick
//! `dynamics:<preset>` spec at a never-used seed, `status` polls every
//! [`POLL`], then `result`. Every served report is compared with the
//! bytes of the same grid run offline through the grid builders.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dimmer_bench::experiments::{
    dynamics_grid, fig5_grid, fig6_grid, fig7_grid, protocol_list, DCUBE_PROTOCOLS,
    DYNAMICS_PROTOCOLS, TESTBED_PROTOCOLS,
};
use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::{dimmer_policy, DYNAMIC_SCENARIOS};
use dimmer_sim::SimRng;
use dimmerd::json::{self, Json};
use dimmerd::{Daemon, DaemonConfig, ScenarioSpec, WorldCache};

use crate::stats::{fnv, median, tail};
use crate::{Args, Outcome};

/// Closed-loop client connections.
pub const CLIENTS: usize = 2;
/// Share of requests that are cold.
pub const COLD_SHARE: f64 = 0.10;
/// Interval between `status` polls of a cold request.
pub const POLL: Duration = Duration::from_millis(1);

/// Quick-mode round counts of the served grids (the binaries' `--quick`).
const DYNAMICS_QUICK_ROUNDS: usize = 60;
const FIG5_QUICK_ROUNDS: usize = 60;
const FIG6_QUICK_ROUNDS: usize = 900;
const FIG7_QUICK_ROUNDS: usize = 200;
const FIG5_LEVELS: [f64; 8] = [0.0, 0.05, 0.10, 0.15, 0.20, 0.25, 0.30, 0.35];

/// One client operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Op {
    /// Index into the memoized hit specs.
    Hit(usize),
    /// A quick dynamics preset at a seed no other request uses.
    Cold { preset: &'static str, seed: u64 },
}

/// A served spec: grid name and seed (always quick, default trials).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Spec {
    pub grid: String,
    pub seed: u64,
}

impl Spec {
    fn submit_line(&self) -> String {
        format!(
            "{{\"cmd\":\"submit\",\"spec\":{{\"grid\":\"{}\",\"quick\":true,\"seed\":{}}}}}",
            self.grid, self.seed
        )
    }

    /// The report the daemon must serve, computed offline through the
    /// grid builders with the daemon's documented quick defaults.
    fn offline_report(&self) -> String {
        let policy = dimmer_policy(true);
        let opts = RunOptions {
            trials: 1,
            threads: 1,
            seed: self.seed,
        };
        let grid = match self.grid.as_str() {
            "fig5" => fig5_grid(
                policy,
                FIG5_QUICK_ROUNDS,
                &FIG5_LEVELS,
                &protocol_list(&TESTBED_PROTOCOLS),
            ),
            "fig6" => fig6_grid(FIG6_QUICK_ROUNDS, None),
            "fig7" => fig7_grid(policy, FIG7_QUICK_ROUNDS, &protocol_list(&DCUBE_PROTOCOLS)),
            g => {
                let preset = g.strip_prefix("dynamics:").expect("dynamics grid");
                let protocols = protocol_list(&DYNAMICS_PROTOCOLS);
                dynamics_grid(policy, DYNAMICS_QUICK_ROUNDS, preset, &protocols, None)
            }
        };
        grid.run(&opts).to_json()
    }
}

/// The memoized specs of benchmark seed `seed`: every dynamics preset plus
/// the Fig. 5, 6 and 7 grids, each at a seed derived from `seed`.
pub fn hit_specs(seed: u64) -> Vec<Spec> {
    let grids = DYNAMIC_SCENARIOS
        .iter()
        .map(|p| format!("dynamics:{p}"))
        .chain(["fig5", "fig6", "fig7"].map(String::from));
    grids
        .enumerate()
        .map(|(i, grid)| Spec {
            grid,
            seed: SimRng::derive_seed(seed, &[10, i as u64]) >> 16,
        })
        .collect()
}

/// The endless, seed-determined operation stream of one client.
pub struct OpGen {
    rng: SimRng,
    seed: u64,
    client: u64,
    hits: usize,
    cold: u64,
}

impl OpGen {
    pub fn new(seed: u64, client: usize, hits: usize) -> Self {
        OpGen {
            rng: SimRng::seed_from(SimRng::derive_seed(seed, &[11, client as u64])),
            seed,
            client: client as u64,
            hits,
            cold: 0,
        }
    }
}

impl Iterator for OpGen {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        Some(if self.rng.chance(COLD_SHARE) {
            let preset = DYNAMIC_SCENARIOS[self.rng.index(DYNAMIC_SCENARIOS.len())];
            // Stream 12 is disjoint from the hit specs' stream 10.
            let seed = SimRng::derive_seed(self.seed, &[12, self.client, self.cold]) >> 16;
            self.cold += 1;
            Op::Cold { preset, seed }
        } else {
            Op::Hit(self.rng.index(self.hits))
        })
    }
}

/// A running daemon: service, loopback listener and threads.
struct Server {
    addr: SocketAddr,
    listener: JoinHandle<std::io::Result<()>>,
    executors: Vec<JoinHandle<()>>,
}

fn config() -> DaemonConfig {
    DaemonConfig {
        threads: 1,
        workers: 1,
        ..DaemonConfig::default()
    }
}

impl Server {
    fn start() -> Server {
        let daemon = Daemon::new(config());
        let executors = daemon.spawn_executors(1);
        let socket = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
        let addr = socket.local_addr().expect("bound address");
        let listener = std::thread::spawn(move || dimmerd::server::serve(&daemon, socket));
        Server {
            addr,
            listener,
            executors,
        }
    }

    /// `shutdown`, then wait for the accept loop and every executor.
    fn stop(self) {
        let mut c = Client::connect(self.addr);
        c.call("{\"cmd\":\"shutdown\"}");
        drop(c);
        self.listener
            .join()
            .expect("accept loop exits")
            .expect("accept loop ends cleanly");
        for e in self.executors {
            e.join().expect("executor exits");
        }
    }
}

/// One line-framed connection.
struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Client {
    fn connect(addr: SocketAddr) -> Client {
        let stream = TcpStream::connect(addr).expect("connect to the daemon");
        stream.set_nodelay(true).expect("TCP_NODELAY");
        Client {
            reader: BufReader::new(stream.try_clone().expect("clone stream")),
            writer: stream,
            line: String::new(),
        }
    }

    /// Sends one request line and returns the reply line.
    fn call(&mut self, request: &str) -> &str {
        self.writer
            .write_all(format!("{request}\n").as_bytes())
            .expect("send request");
        self.line.clear();
        self.reader.read_line(&mut self.line).expect("read reply");
        self.line.trim_end()
    }
}

/// The `job` id and `state` of a submit/status reply.
fn job_and_state(reply: &str) -> Option<(u64, &str)> {
    let rest = &reply[reply.find("\"job\":")? + 6..];
    let end = rest.find(|c: char| !c.is_ascii_digit())?;
    let job = rest[..end].parse().ok()?;
    let state = reply.split("\"state\":\"").nth(1)?.split('"').next()?;
    Some((job, state))
}

/// Submits `line` and polls until the job leaves the queue; returns the
/// job id, or `None` on an error reply or a failed job.
fn submit_and_wait(c: &mut Client, line: &str) -> Option<u64> {
    let (job, mut state) = job_and_state(c.call(line)).map(|(j, s)| (j, s.to_string()))?;
    while state == "queued" || state == "running" {
        std::thread::sleep(POLL);
        state = job_and_state(c.call(&format!("{{\"cmd\":\"status\",\"job\":{job}}}")))?
            .1
            .to_string();
    }
    (state == "done").then_some(job)
}

fn result_line(job: u64) -> String {
    format!("{{\"cmd\":\"result\",\"job\":{job}}}")
}

/// The `report` string of a result reply.
fn report_of(reply: &str) -> Option<String> {
    json::parse(reply)
        .ok()?
        .get("report")?
        .as_str()
        .map(String::from)
}

/// The exact result reply for `report`, minus its leading job id.
fn expected_suffix(report: &str) -> String {
    let mut s = String::from(",\"report\":\"");
    json::escape_into(report, &mut s);
    s.push_str("\"}");
    s
}

#[derive(Default)]
struct ClientLog {
    hit_ms: Vec<f64>,
    cold_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// `(preset, seed, served report digest)` of each cold request.
    cold: Vec<(&'static str, u64, u64)>,
}

fn drive(
    addr: SocketAddr,
    ops: OpGen,
    specs: &[Spec],
    suffixes: &[String],
    deadline: Instant,
) -> ClientLog {
    let mut c = Client::connect(addr);
    let mut log = ClientLog::default();
    let submits: Vec<String> = specs.iter().map(Spec::submit_line).collect();
    for op in ops {
        if Instant::now() >= deadline {
            break;
        }
        log.attempted += 1;
        let t = Instant::now();
        match op {
            Op::Hit(i) => {
                let ok = match job_and_state(c.call(&submits[i])) {
                    Some((job, "done")) => {
                        let reply = c.call(&result_line(job));
                        reply.starts_with("{\"ok\":true,\"job\":") && reply.ends_with(&suffixes[i])
                    }
                    _ => false,
                };
                log.hit_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.failed += u64::from(!ok);
            }
            Op::Cold { preset, seed } => {
                let spec = Spec {
                    grid: format!("dynamics:{preset}"),
                    seed,
                };
                let report = submit_and_wait(&mut c, &spec.submit_line())
                    .and_then(|job| report_of(c.call(&result_line(job))));
                log.cold_ms.push(t.elapsed().as_secs_f64() * 1e3);
                match report {
                    Some(r) => log.cold.push((preset, seed, fnv(r.as_bytes()))),
                    None => log.failed += 1,
                }
            }
        }
    }
    log
}

/// Counters of the `stats` reply.
fn stats(addr: SocketAddr) -> Json {
    let mut c = Client::connect(addr);
    json::parse(c.call("{\"cmd\":\"stats\"}")).expect("stats reply is JSON")
}

fn stat(v: &Json, key: &str) -> f64 {
    v.get(key).and_then(Json::as_u64).unwrap_or(0) as f64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome {
        work_unit: "requests",
        op_name: "one request, submit sent to result read",
        ..Outcome::default()
    };
    out.shape.push(("serve.clients", CLIENTS.to_string()));
    out.shape.push(("serve.daemon_workers", "1".into()));
    out.shape.push(("serve.daemon_threads", "1".into()));
    out.shape.push((
        "serve.poll_interval_ms",
        format!("{}", POLL.as_secs_f64() * 1e3),
    ));
    out.shape.push(("serve.cold_share", COLD_SHARE.to_string()));

    let specs = hit_specs(args.seed);
    let reports: Vec<String> = specs.iter().map(Spec::offline_report).collect();
    for (s, r) in specs.iter().zip(&reports) {
        out.digests.push((s.grid.clone(), fnv(r.as_bytes())));
    }
    let suffixes: Vec<String> = reports.iter().map(|r| expected_suffix(r)).collect();

    // Set-up: start the daemon and memoize every hit spec over the wire —
    // three times; the last daemon serves the measured phase.
    let mut server = None;
    for rep in 0..3 {
        if let Some(s) = server.take() {
            Server::stop(s);
        }
        let t = Instant::now();
        let s = Server::start();
        let mut c = Client::connect(s.addr);
        let replies: Vec<Option<String>> = specs
            .iter()
            .map(|spec| {
                submit_and_wait(&mut c, &spec.submit_line())
                    .map(|job| c.call(&result_line(job)).to_string())
            })
            .collect();
        drop(c);
        out.setup_s.push(t.elapsed().as_secs_f64());
        if rep == 0 {
            for ((spec, reply), report) in specs.iter().zip(&replies).zip(&reports) {
                out.attempted += 1;
                let ok = reply.as_deref().and_then(report_of).as_ref() == Some(report);
                out.check(ok, || {
                    format!("served {} differs from its offline run", spec.grid)
                });
            }
        }
        server = Some(s);
    }
    let server = server.expect("daemon started");

    let budget = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(budget);
    let logs: Vec<ClientLog> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|client| {
                let ops = OpGen::new(args.seed, client, specs.len());
                let (specs, suffixes) = (&specs, &suffixes);
                scope.spawn(move || drive(server.addr, ops, specs, suffixes, deadline))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    out.busy_s = start.elapsed().as_secs_f64();
    let st = stats(server.addr);
    server.stop();

    let (mut hit_ms, mut cold_ms, mut cold) = (Vec::new(), Vec::new(), Vec::new());
    for log in logs {
        out.attempted += log.attempted;
        out.failed += log.failed;
        if log.failed > 0 {
            out.notes
                .push(format!("MISMATCH: {} failed requests", log.failed));
        }
        hit_ms.extend(log.hit_ms);
        cold_ms.extend(log.cold_ms);
        cold.extend(log.cold);
    }
    out.work = (hit_ms.len() + cold_ms.len()) as u64;
    out.op_ms = hit_ms.iter().chain(&cold_ms).copied().collect();
    out.counters.add("hit_requests", hit_ms.len() as u64);
    out.counters.add("cold_requests", cold_ms.len() as u64);
    out.counters.add("memo_hits", stat(&st, "memo_hits") as u64);

    // Every cold report against its offline run.
    let mut exec_ms = Vec::new();
    for &(preset, seed, served) in &cold {
        let spec = Spec {
            grid: format!("dynamics:{preset}"),
            seed,
        };
        let t = Instant::now();
        let offline = fnv(spec.offline_report().as_bytes());
        exec_ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.check(offline == served, || {
            format!("cold {} seed {seed} differs", spec.grid)
        });
    }
    let hit_tail = tail(&hit_ms);
    let cold_tail = tail(&cold_ms);
    let hit_p50_us = median(&hit_ms) * 1e3;
    let cold_p50 = median(&cold_ms);
    out.notes.push(format!(
        "hit latency: p50 {hit_p50_us:.1} us, p{} {:.1} us (n={}, {} beyond)",
        hit_tail.pct,
        hit_tail.value * 1e3,
        hit_tail.n,
        hit_tail.beyond
    ));
    out.notes.push(format!(
        "cold latency: p50 {cold_p50:.2} ms, p{} {:.2} ms (n={}, {} beyond); offline run {:.2} ms",
        cold_tail.pct,
        cold_tail.value,
        cold_tail.n,
        cold_tail.beyond,
        median(&exec_ms)
    ));
    out.notes.push(format!(
        "stats: memo_hits {} memo_misses {} busy_rejections {} failed {}",
        stat(&st, "memo_hits"),
        stat(&st, "memo_misses"),
        stat(&st, "busy_rejections"),
        stat(&st, "failed")
    ));

    if args.trace {
        let handle_us = handle_probe(args.seed, &specs, &suffixes, &mut out);
        let exec = exec_probe(&cold, &mut out);
        let hits = stat(&st, "memo_hits");
        let lookups = hits + stat(&st, "memo_misses");
        let (parse_us, reply_bytes) = parse_probe(&suffixes);
        out.layer("dimmerd.json.parse_us", parse_us);
        out.layer("dimmerd.json.reply_bytes", reply_bytes);
        out.layer("dimmerd.service.handle_us", handle_us);
        out.layer("dimmerd.server.framing_us", hit_p50_us - handle_us);
        out.layer("dimmerd.server.hit_p50_us", hit_p50_us);
        out.layer("dimmerd.server.hit_tail_us", hit_tail.value * 1e3);
        out.layer("dimmerd.server.cold_p50_ms", cold_p50);
        out.layer("dimmerd.server.cold_tail_ms", cold_tail.value);
        out.layer("dimmerd.service.exec_ms", exec);
        out.layer("dimmerd.service.wait_ms", cold_p50 - exec);
        out.layer(
            "dimmerd.cache.memo_hit_ratio",
            if lookups > 0.0 { hits / lookups } else { 0.0 },
        );
        out.layer("dimmerd.cache.memo_bytes", stat(&st, "memo_bytes"));
        out.layer(
            "dimmerd.service.busy_rejections",
            stat(&st, "busy_rejections"),
        );
        out.layer("dimmerd.service.failed", stat(&st, "failed"));
        out.notes.push(format!(
            "attribution hit p50 {hit_p50_us:.1} us = handle_line {handle_us:.1} us + framing and socket {:.1} us",
            hit_p50_us - handle_us
        ));
        out.notes.push(format!(
            "attribution cold p50 {cold_p50:.2} ms = exec {exec:.2} ms + queue and poll wait {:.2} ms",
            cold_p50 - exec
        ));
        out.notes.push(
            "trace overhead: none in the measured phase (the serve probes run after it)".into(),
        );
    }
    out
}

/// Median µs of `Daemon::handle_line` for a hit (submit plus result),
/// replaying client 0's hit sequence in-process without TCP.
fn handle_probe(seed: u64, specs: &[Spec], suffixes: &[String], out: &mut Outcome) -> f64 {
    const HITS: usize = 2000;
    let daemon = Daemon::new(config());
    let executors = daemon.spawn_executors(1);
    let submits: Vec<String> = specs.iter().map(Spec::submit_line).collect();
    for line in &submits {
        if let Some((job, _)) = job_and_state(&daemon.handle_line(line).0) {
            daemon.wait_for_job(job);
        }
    }
    let mut us = Vec::with_capacity(HITS);
    let hits = OpGen::new(seed, 0, specs.len()).filter_map(|op| match op {
        Op::Hit(i) => Some(i),
        Op::Cold { .. } => None,
    });
    for i in hits.take(HITS) {
        let t = Instant::now();
        let (reply, _) = daemon.handle_line(&submits[i]);
        let ok = match job_and_state(&reply) {
            Some((job, "done")) => daemon
                .handle_line(&result_line(job))
                .0
                .ends_with(&suffixes[i]),
            _ => false,
        };
        us.push(t.elapsed().as_secs_f64() * 1e6);
        out.attempted += 1;
        out.check(ok, || {
            format!("in-process hit on {} differs", specs[i].grid)
        });
    }
    daemon.handle_line("{\"cmd\":\"shutdown\"}");
    for e in executors {
        e.join().expect("executor exits");
    }
    median(&us)
}

/// Median ms of `ScenarioSpec::build` plus `run` for the first cold specs.
fn exec_probe(cold: &[(&'static str, u64, u64)], out: &mut Outcome) -> f64 {
    let mut ms = Vec::new();
    for &(preset, seed, served) in cold.iter().take(16) {
        let spec = ScenarioSpec {
            grid: format!("dynamics:{preset}"),
            quick: true,
            trials: None,
            seed: Some(seed),
            protocols: None,
        };
        let t = Instant::now();
        let report = spec
            .build(&mut WorldCache::new())
            .and_then(|g| {
                Ok(g.run(&RunOptions {
                    trials: spec.trials()?,
                    threads: 1,
                    seed: spec.resolved_seed()?,
                }))
            })
            .map(|r| r.to_json());
        ms.push(t.elapsed().as_secs_f64() * 1e3);
        out.attempted += 1;
        let same = report.as_deref().map(|r| fnv(r.as_bytes())) == Ok(served);
        out.check(same, || {
            format!("in-process {} seed {seed} differs", spec.grid)
        });
    }
    median(&ms)
}

/// Mean µs of `json::parse` over the hit result replies, and their mean
/// size in bytes.
fn parse_probe(suffixes: &[String]) -> (f64, f64) {
    const REPS: usize = 50;
    let lines: Vec<String> = suffixes
        .iter()
        .map(|s| format!("{{\"ok\":true,\"job\":1{s}"))
        .collect();
    let t = Instant::now();
    for _ in 0..REPS {
        for l in &lines {
            std::hint::black_box(json::parse(l).expect("reply parses"));
        }
    }
    let us = t.elapsed().as_secs_f64() * 1e6 / (REPS * lines.len()) as f64;
    let bytes = lines.iter().map(String::len).sum::<usize>() as f64 / lines.len() as f64;
    (us, bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_lists_are_deterministic_per_seed_and_differ_across_seeds() {
        let ops = |seed, client| OpGen::new(seed, client, 7).take(500).collect::<Vec<_>>();
        assert_eq!(ops(1, 0), ops(1, 0));
        assert_ne!(ops(1, 0), ops(2, 0));
        assert_ne!(ops(1, 0), ops(1, 1));
        let cold = ops(1, 0)
            .iter()
            .filter(|o| matches!(o, Op::Cold { .. }))
            .count();
        assert!(
            (25..=75).contains(&cold),
            "about 10 % cold, got {cold} of 500"
        );
        assert_eq!(hit_specs(3), hit_specs(3));
        assert_ne!(hit_specs(3), hit_specs(4));
    }

    #[test]
    fn cold_seeds_never_repeat_or_collide_with_hits() {
        let hits: Vec<u64> = hit_specs(1).iter().map(|s| s.seed).collect();
        let mut seen = std::collections::BTreeSet::new();
        for client in 0..CLIENTS {
            for op in OpGen::new(1, client, 7).take(5000) {
                if let Op::Cold { seed, .. } = op {
                    assert!(seen.insert(seed), "cold seed {seed} repeats");
                    assert!(!hits.contains(&seed));
                }
            }
        }
    }

    #[test]
    fn reply_parsing() {
        assert_eq!(
            job_and_state("{\"ok\":true,\"job\":12,\"state\":\"done\"}"),
            Some((12, "done"))
        );
        assert_eq!(job_and_state("{\"ok\":false,\"error\":\"busy\"}"), None);
        let suffix = expected_suffix("{\"a\":\"b\\n\"}");
        let reply = format!("{{\"ok\":true,\"job\":3{suffix}");
        assert_eq!(report_of(&reply).as_deref(), Some("{\"a\":\"b\\n\"}"));
    }
}
