//! End-to-end checks of the `dimmerd` serving path: memoized results are
//! byte-identical to fresh runs, scenario hashes are stable across
//! equivalent spec constructions, the warm world cache serves the city
//! grid with the exact offline bytes, and concurrent TCP clients each get
//! their deterministic report.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpListener, TcpStream};

use dimmer_bench::experiments::{city_scale_grid, dynamics_grid, protocol_list};
use dimmer_bench::harness::RunOptions;
use dimmer_bench::scenarios::dimmer_policy;
use dimmerd::json::{self, Json};
use dimmerd::{Daemon, DaemonConfig, ScenarioSpec, WorldCache};

fn daemon() -> Daemon {
    daemon_with_workers(1)
}

fn daemon_with_workers(workers: usize) -> Daemon {
    Daemon::new(DaemonConfig {
        queue_limit: 16,
        threads: 2,
        workers,
        memo_budget_bytes: 64 * 1024 * 1024,
    })
}

/// Sends one request line in-process and parses the reply.
fn ask(d: &Daemon, line: &str) -> Json {
    let (reply, _) = d.handle_line(line);
    json::parse(&reply).expect("daemon replies are valid JSON")
}

fn submit_and_wait(d: &Daemon, line: &str) -> (u64, String) {
    let reply = ask(d, line);
    assert_eq!(
        reply.get("ok"),
        Some(&Json::Bool(true)),
        "submit: {reply:?}"
    );
    let job = reply.get("job").and_then(Json::as_u64).expect("job id");
    d.wait_for_job(job);
    let result = ask(d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    assert_eq!(
        result.get("ok"),
        Some(&Json::Bool(true)),
        "result: {result:?}"
    );
    let report = result
        .get("report")
        .and_then(Json::as_str)
        .expect("report payload")
        .to_string();
    (job, report)
}

#[test]
fn memoized_result_is_byte_identical_to_a_fresh_run() {
    let d = daemon();
    let executor = d.spawn_executor();

    let (_, first) = submit_and_wait(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);

    // The offline reference: the same spec built and run directly through
    // the shared grid runner.
    let spec = json::parse(r#"{"grid":"table1","seed":7}"#).unwrap();
    let spec = ScenarioSpec::from_json(&spec).unwrap();
    let offline = spec
        .build(&mut WorldCache::new())
        .unwrap()
        .run(&RunOptions {
            trials: spec.trials().unwrap(),
            threads: 1,
            seed: spec.resolved_seed().unwrap(),
        })
        .to_json();
    assert_eq!(first, offline, "served report != offline scheduler bytes");

    // Resubmission answers at submit time ("done") from the memo, with
    // the identical bytes.
    let again = ask(&d, r#"{"cmd":"submit","spec":{"grid":"table1","seed":7}}"#);
    assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
    let job = again.get("job").and_then(Json::as_u64).unwrap();
    let result = ask(&d, &format!(r#"{{"cmd":"result","job":{job}}}"#));
    let memoized = result.get("report").and_then(Json::as_str).unwrap();
    assert_eq!(
        memoized, first,
        "memoized report drifted from the fresh run"
    );

    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert!(
        stats.get("memo_hits").and_then(Json::as_u64).unwrap() >= 1,
        "resubmission must count as a memo hit: {stats:?}"
    );

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn warm_world_city_report_matches_the_offline_grid_bytes() {
    let d = daemon();
    let executor = d.spawn_executor();

    // The daemon resolves `city --quick` to 8 floods, 4 trials, seed 500
    // over the warm world cache; the offline reference builds everything
    // cold. Bytes must agree exactly.
    let (_, served) = submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let offline = city_scale_grid(8)
        .run(&RunOptions {
            trials: 4,
            threads: 2,
            seed: 500,
        })
        .to_json();
    assert_eq!(
        served, offline,
        "warm-cache city report != cold-built bytes"
    );

    // A second submission is a memo hit — and the worlds were only built
    // once (the whole point of the warm cache).
    submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"city","quick":true}}"#,
    );
    let stats = ask(&d, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("world_misses").and_then(Json::as_u64), Some(1));
    assert!(stats.get("world_bytes").and_then(Json::as_u64).unwrap() > 0);

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn dynamics_serves_the_opt_in_zoo_with_the_offline_bytes() {
    let d = daemon();
    let executor = d.spawn_executor();

    // `dimmer-zoo` is opt-in on every dynamics grid, exactly as with
    // `exp dynamics:<preset> --protocols dimmer-zoo`.
    let (_, served) = submit_and_wait(
        &d,
        r#"{"cmd":"submit","spec":{"grid":"dynamics:churn-storm","quick":true,"protocols":["dimmer-zoo"]}}"#,
    );
    let protocols = protocol_list(&["dimmer-zoo"]);
    let offline = dynamics_grid(dimmer_policy(true), 60, "churn-storm", &protocols, None)
        .run(&RunOptions {
            trials: 1,
            threads: 1,
            seed: 11,
        })
        .to_json();
    assert_eq!(served, offline, "served zoo report != offline grid bytes");

    ask(&d, r#"{"cmd":"shutdown"}"#);
    executor.join().unwrap();
}

#[test]
fn four_worker_daemon_serves_the_single_worker_bytes_and_memo_hits() {
    // The reference daemon: one executor, a spread of specs.
    let single = daemon_with_workers(1);
    let single_exec = single.spawn_executors(1);
    let specs: Vec<String> = (1..=5)
        .map(|seed| format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#))
        .collect();
    let mut reference = Vec::new();
    for spec in &specs {
        let (_, report) = submit_and_wait(&single, spec);
        reference.push(report);
    }

    // The 4-worker pool executes the same specs concurrently; every
    // report must be byte-identical to the single-worker daemon's.
    let pool = daemon_with_workers(4);
    let pool_execs = pool.spawn_executors(4);
    let jobs: Vec<u64> = specs
        .iter()
        .map(|spec| {
            let reply = ask(&pool, spec);
            assert_eq!(reply.get("ok"), Some(&Json::Bool(true)), "{reply:?}");
            reply.get("job").and_then(Json::as_u64).expect("job id")
        })
        .collect();
    for (job, want) in jobs.iter().zip(&reference) {
        pool.wait_for_job(*job);
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        let report = result.get("report").and_then(Json::as_str).unwrap();
        assert_eq!(report, want, "job {job}: pool bytes drifted from 1-worker");
    }

    // Resubmitting the whole batch answers from the memo — same bytes,
    // one hit per spec, nothing recomputed.
    for (spec, want) in specs.iter().zip(&reference) {
        let again = ask(&pool, spec);
        assert_eq!(again.get("state").and_then(Json::as_str), Some("done"));
        let job = again.get("job").and_then(Json::as_u64).unwrap();
        let result = ask(&pool, &format!(r#"{{"cmd":"result","job":{job}}}"#));
        assert_eq!(
            result.get("report").and_then(Json::as_str),
            Some(want.as_str())
        );
    }
    let stats = ask(&pool, r#"{"cmd":"stats"}"#);
    assert_eq!(
        stats.get("memo_hits").and_then(Json::as_u64),
        Some(5),
        "each resubmission is one memo hit: {stats:?}"
    );
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(10));

    ask(&pool, r#"{"cmd":"shutdown"}"#);
    for handle in pool_execs {
        handle.join().unwrap();
    }
    assert!(pool.is_stopped());
    ask(&single, r#"{"cmd":"shutdown"}"#);
    for handle in single_exec {
        handle.join().unwrap();
    }
}

#[test]
fn scenario_hashes_are_stable_across_equivalent_constructions() {
    let parse = |line: &str| ScenarioSpec::from_json(&json::parse(line).unwrap()).unwrap();
    // Field order, explicit-default protocols and explicit-default trials
    // all canonicalize identically.
    let variants = [
        r#"{"grid":"fig7","quick":true}"#,
        r#"{"quick":true,"grid":"fig7"}"#,
        r#"{"grid":"fig7","quick":true,"trials":1}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static","dimmer-dqn","crystal"]}"#,
    ];
    let reference = parse(variants[0]).hash().unwrap();
    for v in &variants[1..] {
        assert_eq!(parse(v).hash().unwrap(), reference, "{v} must hash equal");
    }
    // Different grids, scales and selections must not collide pairwise.
    let distinct = [
        r#"{"grid":"fig7","quick":false}"#,
        r#"{"grid":"fig7","quick":true,"trials":2}"#,
        r#"{"grid":"fig7","quick":true,"protocols":["static"]}"#,
        r#"{"grid":"fig5","quick":true}"#,
        r#"{"grid":"city","quick":true}"#,
        r#"{"grid":"dynamics:churn-storm","quick":true}"#,
        r#"{"grid":"dynamics:roaming-jammer","quick":true}"#,
    ];
    let mut hashes = vec![reference];
    for v in &distinct {
        let h = parse(v).hash().unwrap();
        assert!(!hashes.contains(&h), "{v} collided with an earlier spec");
        hashes.push(h);
    }
}

/// One TCP request/reply round trip against a live daemon socket.
fn tcp_ask(addr: std::net::SocketAddr, line: &str) -> Json {
    let stream = TcpStream::connect(addr).expect("connect to test daemon");
    let mut writer = stream.try_clone().expect("clone stream");
    writer.write_all(line.as_bytes()).unwrap();
    writer.write_all(b"\n").unwrap();
    writer.flush().unwrap();
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).unwrap();
    json::parse(reply.trim()).expect("daemon replies are valid JSON")
}

#[test]
fn an_over_long_request_line_is_refused_and_the_connection_keeps_serving() {
    use dimmerd::server::MAX_REQUEST_BYTES;
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let d = daemon();
    let executor = d.spawn_executor();
    let server = {
        let d = d.clone();
        std::thread::spawn(move || dimmerd::server::serve(&d, listener))
    };

    let stream = TcpStream::connect(addr).expect("connect to test daemon");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap();
    let mut writer = stream.try_clone().expect("clone stream");
    let mut reader = BufReader::new(stream);
    let mut read_reply = || {
        let mut reply = String::new();
        reader
            .read_line(&mut reply)
            .expect("a reply before the read timeout");
        json::parse(reply.trim()).expect("daemon replies are valid JSON")
    };
    // A line of exactly the cap (newline excluded) is still served.
    let mut at_cap = br#"{"cmd":"stats"}"#.to_vec();
    at_cap.resize(MAX_REQUEST_BYTES as usize, b' ');
    at_cap.push(b'\n');
    writer.write_all(&at_cap).unwrap();
    writer.flush().unwrap();
    let served = read_reply();
    assert_eq!(served.get("ok"), Some(&Json::Bool(true)), "{served:?}");
    // One byte past the cap and no newline: the reply must not wait for one.
    writer
        .write_all(&vec![b'a'; MAX_REQUEST_BYTES as usize + 1])
        .unwrap();
    writer.flush().unwrap();
    let refused = read_reply();
    assert_eq!(refused.get("ok"), Some(&Json::Bool(false)), "{refused:?}");
    // The rest of the long line is skipped; the next line is served.
    writer.write_all(b"aaaa\n{\"cmd\":\"stats\"}\n").unwrap();
    writer.flush().unwrap();
    let stats = read_reply();
    assert_eq!(stats.get("ok"), Some(&Json::Bool(true)), "{stats:?}");

    let bye = tcp_ask(addr, r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("state").and_then(Json::as_str), Some("draining"));
    executor.join().unwrap();
    server.join().unwrap().expect("server exits cleanly");
}

#[test]
fn concurrent_tcp_clients_each_get_their_deterministic_report() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral port");
    let addr = listener.local_addr().unwrap();
    let d = daemon();
    let executor = d.spawn_executor();
    let server = {
        let d = d.clone();
        std::thread::spawn(move || dimmerd::server::serve(&d, listener))
    };

    // Several clients submit the same grid at different seeds in
    // parallel; each must receive the report its seed determines.
    let seeds: Vec<u64> = (1..=4).collect();
    let clients: Vec<_> = seeds
        .iter()
        .map(|&seed| {
            std::thread::spawn(move || {
                let submit = tcp_ask(
                    addr,
                    &format!(r#"{{"cmd":"submit","spec":{{"grid":"table1","seed":{seed}}}}}"#),
                );
                assert_eq!(submit.get("ok"), Some(&Json::Bool(true)), "{submit:?}");
                let job = submit.get("job").and_then(Json::as_u64).unwrap();
                loop {
                    let status = tcp_ask(addr, &format!(r#"{{"cmd":"status","job":{job}}}"#));
                    match status.get("state").and_then(Json::as_str) {
                        Some("done") | Some("failed") => break,
                        _ => std::thread::sleep(std::time::Duration::from_millis(20)),
                    }
                }
                let result = tcp_ask(addr, &format!(r#"{{"cmd":"result","job":{job}}}"#));
                assert_eq!(result.get("ok"), Some(&Json::Bool(true)), "{result:?}");
                (
                    seed,
                    result
                        .get("report")
                        .and_then(Json::as_str)
                        .unwrap()
                        .to_string(),
                )
            })
        })
        .collect();

    for client in clients {
        let (seed, served) = client.join().expect("client thread");
        let spec = ScenarioSpec::from_json(
            &json::parse(&format!(r#"{{"grid":"table1","seed":{seed}}}"#)).unwrap(),
        )
        .unwrap();
        let offline = spec
            .build(&mut WorldCache::new())
            .unwrap()
            .run(&RunOptions {
                trials: 1,
                threads: 1,
                seed,
            })
            .to_json();
        assert_eq!(served, offline, "seed {seed}: served bytes drifted");
    }

    let stats = tcp_ask(addr, r#"{"cmd":"stats"}"#);
    assert_eq!(stats.get("completed").and_then(Json::as_u64), Some(4));

    let bye = tcp_ask(addr, r#"{"cmd":"shutdown"}"#);
    assert_eq!(bye.get("state").and_then(Json::as_str), Some("draining"));
    executor.join().unwrap();
    server.join().unwrap().expect("server exits cleanly");
}
