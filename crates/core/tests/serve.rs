//! End-to-end tests of `dynslice serve`: concurrent socket clients,
//! per-request deadlines, graceful shutdown with a flushed report, and
//! the multi-trace session lifecycle (load/slice/unload, LRU eviction
//! under a memory budget, per-session result caches).

mod common;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::{ServerProcess, SpawnServer as _};
use dynslice::protocol::{ErrorKind, Request, Response, ResponseBody};
use dynslice::{
    serve, Algo, Criterion, OptConfig, OwnedSlicer, Registry, RunReport, ServeConfig, Session,
    SessionManager, SliceClient, Slicer as _, SlicerConfig, Transport,
};

const PROGRAM: &str = "
    global int results[4];

    fn classify(int v) -> int {
        if (v < 0) { return 0; }
        if (v < 10) { return 1; }
        if (v < 100) { return 2; }
        return 3;
    }

    fn main() {
        int i;
        for (i = 0; i < 8; i = i + 1) {
            int v = input();
            int class = classify(v);
            results[class] = results[class] + 1;
        }
        print results[0];
        print results[1];
        print results[2];
        print results[3];
    }";

const INPUT: &str = "5,-3,42,7,1000,-1,12,3";

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dynslice"))
}

fn work_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("dynslice-serve-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_program(dir: &Path) -> PathBuf {
    let path = dir.join("serve.minic");
    std::fs::write(&path, PROGRAM).unwrap();
    path
}

/// The slices the server must reproduce, computed in-process.
fn expected_slices() -> Vec<Vec<u32>> {
    let session = Session::compile(PROGRAM).unwrap();
    let trace = session.run(vec![5, -3, 42, 7, 1000, -1, 12, 3]);
    let opt = session.opt(&trace, &OptConfig::default());
    (0..4)
        .map(|k| {
            let slice = opt.slice(&Criterion::Output(k)).unwrap();
            slice.stmts.iter().map(|s| s.index() as u32).collect()
        })
        .collect()
}

/// A second, much smaller program so multi-session tests serve two
/// genuinely different traces from one server.
const PROGRAM_B: &str = "
    global int a[2];

    fn main() {
        a[0] = input();
        a[1] = a[0] * 2;
        print a[1];
    }";

const INPUT_B: &[i64] = &[21];

fn write_program_b(dir: &Path) -> PathBuf {
    let path = dir.join("doubler.minic");
    std::fs::write(&path, PROGRAM_B).unwrap();
    path
}

/// The slice of `PROGRAM_B`'s only output, computed in-process.
fn expected_doubler_slice() -> Vec<u32> {
    let session = Session::compile(PROGRAM_B).unwrap();
    let trace = session.run(INPUT_B.to_vec());
    let opt = session.opt(&trace, &OptConfig::default());
    let slice = opt.slice(&Criterion::Output(0)).unwrap();
    slice.stmts.iter().map(|s| s.index() as u32).collect()
}

/// Runs a stdio server with `args`, feeds it `requests` (then EOF, the
/// stdio transport's graceful shutdown), and returns the responses by id.
///
/// Requests are sent one at a time, each only after the previous answer
/// arrived: every op produces exactly one response, and scripts that
/// load a session and then slice it must not race the load against the
/// slice across concurrent workers.
fn run_stdio_script(args: &[String], requests: &[Request]) -> BTreeMap<u64, ResponseBody> {
    let mut child = bin()
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn_server();
    let mut stdin = child.stdin.take().unwrap();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    let mut by_id = BTreeMap::new();
    for request in requests {
        writeln!(stdin, "{}", request.to_json()).unwrap();
        let mut line = String::new();
        assert!(
            stdout.read_line(&mut line).unwrap() > 0,
            "server closed before answering `{}`",
            request.to_json(),
        );
        let response = Response::parse(line.trim_end()).unwrap();
        by_id.insert(response.id, response.body);
    }
    drop(stdin);
    // Anything after EOF (there should be nothing) still gets collected
    // so a protocol regression surfaces as a parse failure, not a hang.
    for line in stdout.lines() {
        let response = Response::parse(&line.unwrap()).unwrap();
        by_id.insert(response.id, response.body);
    }
    let out = child.wait_for_exit(Duration::from_secs(60));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    by_id
}

/// ≥8 concurrent socket clients all get answers identical to a direct
/// in-process `OptSlicer`, and a `shutdown` request ends the session.
#[test]
fn concurrent_socket_clients_match_direct_slicer() {
    let dir = work_dir("socket");
    let program = write_program(&dir);
    let socket = dir.join("slice.sock");
    let report = dir.join("report.json");
    let child = bin()
        .args([
            "serve",
            program.to_str().unwrap(),
            "--algo",
            "opt",
            "--input",
            INPUT,
            "--workers",
            "4",
            "--socket",
            socket.to_str().unwrap(),
            "--metrics-json",
            report.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn_server();

    // The socket appears once the backend is built and the acceptor runs.
    let start = Instant::now();
    while !socket.exists() {
        assert!(start.elapsed() < Duration::from_secs(30), "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let expected = expected_slices();
    let handles: Vec<_> = (0..8)
        .map(|t: usize| {
            let socket = socket.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = SliceClient::builder().unix(&socket).connect().unwrap();
                for round in 0..3 {
                    let k = (t + round) % 4;
                    let response = client.slice(&Criterion::Output(k)).unwrap();
                    match response.body {
                        ResponseBody::Slice { ref algo, ref stmts, .. } => {
                            assert_eq!(algo, "opt", "client {t}");
                            assert_eq!(stmts, &expected[k], "client {t}, out:{k}");
                        }
                        ref other => panic!("client {t}: unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let mut closer = SliceClient::builder().unix(&socket).connect().unwrap();
    let ack = closer.shutdown().unwrap();
    assert!(matches!(ack.body, ResponseBody::ShutdownAck), "got {ack:?}");

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    assert!(!socket.exists(), "socket file is removed on shutdown");

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.algorithm, "serve-opt");
    // Each of the 9 connections opens with the builder's hello.
    assert_eq!(parsed.counter_or_zero("server.requests"), 8 * 3 + 1 + 9);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 8 * 3 + 9);
    assert_eq!(parsed.counter_or_zero("server.handshakes"), 9);
    assert_eq!(parsed.counter_or_zero("server.connections"), 9);
    assert!(parsed.counter_or_zero("server.cache_hits") > 0, "4 criteria, 24 queries");
    assert!(parsed.phases_ms.contains_key("serve"));
}

/// A slow query exceeds `--timeout-ms` and fails alone; a concurrent
/// fast query on the same session still succeeds.
#[test]
fn slow_query_times_out_while_others_complete() {
    let dir = work_dir("timeout");
    let program = write_program(&dir);
    let mut child = bin()
        .args([
            "serve",
            program.to_str().unwrap(),
            "--input",
            INPUT,
            "--workers",
            "2",
            "--timeout-ms",
            "100",
            // The slow query is the first job a worker picks up.
            "--fault-plan",
            "request:delay=500ms@1",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn_server();

    let mut by_id = BTreeMap::new();
    {
        let mut stdin = child.stdin.take().unwrap();
        let mut stdout = BufReader::new(child.stdout.take().unwrap());
        let mut next = || {
            let mut line = String::new();
            assert!(stdout.read_line(&mut line).unwrap() > 0, "server closed early");
            Response::parse(line.trim_end()).unwrap()
        };
        writeln!(stdin, "{}", Request::slice(1, &Criterion::Output(0)).to_json()).unwrap();
        // The fast query goes out only once `health` shows the slow one
        // dequeued, so the delay cannot land on it.
        for poll in 100.. {
            writeln!(stdin, "{}", Request::health(poll).to_json()).unwrap();
            let reply = next();
            if matches!(reply.body, ResponseBody::Health { queue_depth: 0, .. }) {
                break;
            }
            by_id.insert(reply.id, reply.body);
        }
        writeln!(stdin, "{}", Request::slice(2, &Criterion::Output(1)).to_json()).unwrap();
        while !(by_id.contains_key(&1) && by_id.contains_key(&2)) {
            let reply = next();
            by_id.insert(reply.id, reply.body);
        }
        // Dropping stdin is the stdio transport's graceful shutdown.
    }

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
    match &by_id[&1] {
        ResponseBody::Error { kind, .. } => assert_eq!(*kind, ErrorKind::Timeout),
        other => panic!("slow query should time out, got {other:?}"),
    }
    let expected = expected_slices();
    match &by_id[&2] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected[1]),
        other => panic!("fast query should succeed, got {other:?}"),
    }
}

/// Bad lines and unknown criteria are isolated per-request, a `shutdown`
/// op drains the session, and the final report reconciles every line.
#[test]
fn graceful_shutdown_flushes_a_reconciled_report() {
    let dir = work_dir("shutdown");
    let program = write_program(&dir);
    let report = dir.join("report.json");
    let mut child = bin()
        .args([
            "serve",
            program.to_str().unwrap(),
            "--input",
            INPUT,
            "--workers",
            "2",
            "--metrics-json",
            report.to_str().unwrap(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn_server();

    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{}", Request::slice(1, &Criterion::Output(0)).to_json()).unwrap();
        writeln!(stdin, r#"{{"id":2,"criterion":"out:99"}}"#).unwrap();
        writeln!(stdin, "this is not json").unwrap();
        writeln!(stdin, "{}", Request::slice(4, &Criterion::Output(1)).to_json()).unwrap();
        writeln!(stdin, "{}", Request::shutdown(5).to_json()).unwrap();
    }

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let mut by_id = std::collections::BTreeMap::new();
    for line in BufReader::new(&out.stdout[..]).lines() {
        let response = Response::parse(&line.unwrap()).unwrap();
        by_id.insert(response.id, response.body);
    }
    assert!(matches!(by_id[&1], ResponseBody::Slice { .. }));
    match &by_id[&2] {
        ResponseBody::Error { kind, .. } => assert_eq!(*kind, ErrorKind::UnknownCriterion),
        other => panic!("out:99 should be unknown, got {other:?}"),
    }
    match &by_id[&0] {
        ResponseBody::Error { kind, .. } => assert_eq!(*kind, ErrorKind::BadRequest),
        other => panic!("garbage line should be a bad request, got {other:?}"),
    }
    assert!(matches!(by_id[&4], ResponseBody::Slice { .. }));
    assert!(matches!(by_id[&5], ResponseBody::ShutdownAck));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 5);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 2);
    assert_eq!(parsed.counter_or_zero("server.bad_requests"), 1);
    assert_eq!(parsed.counter_or_zero("server.failed"), 1);
    assert_eq!(parsed.counter_or_zero("server.timeouts"), 0);

    // The emitted report also passes the CLI's own schema validator.
    let validate =
        bin().args(["metrics-validate", report.to_str().unwrap()]).output().unwrap();
    assert!(validate.status.success());
}

const INPUT_VALUES: &[i64] = &[5, -3, 42, 7, 1000, -1, 12, 3];

/// 8 socket clients interleave `load`/`slice`/`unload` across their own
/// sessions (two different programs) while also querying the default
/// trace; every answer matches an in-process slicer, a re-`load` after
/// `unload` works, and the final report attributes 16 session lifetimes.
#[test]
fn concurrent_clients_interleave_session_lifecycles() {
    let dir = work_dir("sessions");
    let classify = write_program(&dir);
    let doubler = write_program_b(&dir);
    let socket = dir.join("sessions.sock");
    let report = dir.join("report.json");
    let child = bin()
        .args([
            "serve",
            classify.to_str().unwrap(),
            "--algo",
            "opt",
            "--input",
            INPUT,
            "--workers",
            "4",
            "--max-sessions",
            "16",
            "--socket",
            socket.to_str().unwrap(),
            "--metrics-json",
            report.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn_server();

    let start = Instant::now();
    while !socket.exists() {
        assert!(start.elapsed() < Duration::from_secs(30), "socket never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }

    let default_expected = expected_slices();
    let doubler_expected = expected_doubler_slice();
    let handles: Vec<_> = (0..8)
        .map(|t: usize| {
            let socket = socket.clone();
            let default_expected = default_expected.clone();
            let doubler_expected = doubler_expected.clone();
            let classify = classify.clone();
            let doubler = doubler.clone();
            std::thread::spawn(move || {
                let slice_of = |response: Response, what: &str| -> Vec<u32> {
                    match response.body {
                        ResponseBody::Slice { stmts, .. } => stmts,
                        other => panic!("client {t}: {what} answered {other:?}"),
                    }
                };
                let mut client = SliceClient::builder().unix(&socket).connect().unwrap();
                let name = format!("s{t}");
                // Even clients serve the classifier, odd ones the doubler.
                let (program, input, own_expected) = if t.is_multiple_of(2) {
                    (&classify, INPUT_VALUES.to_vec(), default_expected.clone())
                } else {
                    (&doubler, INPUT_B.to_vec(), vec![doubler_expected.clone()])
                };
                let program = program.to_str().unwrap();

                let loaded = client.load(&name, program, &input, None).unwrap();
                match loaded.body {
                    ResponseBody::Loaded { ref session, ref algo, resident_bytes } => {
                        assert_eq!(session, &name, "client {t}");
                        assert_eq!(algo, "opt", "client {t}");
                        assert!(resident_bytes > 0, "client {t}");
                    }
                    ref other => panic!("client {t}: load answered {other:?}"),
                }
                for round in 0..2 {
                    let k = (t + round) % own_expected.len();
                    let own = client.slice_in(&name, &Criterion::Output(k)).unwrap();
                    assert_eq!(slice_of(own, "session slice"), own_expected[k], "client {t}");
                    let k = (t + round) % default_expected.len();
                    let default = client.slice(&Criterion::Output(k)).unwrap();
                    assert_eq!(
                        slice_of(default, "default slice"),
                        default_expected[k],
                        "client {t}"
                    );
                }
                let gone = client.unload(&name).unwrap();
                assert!(
                    matches!(gone.body, ResponseBody::Unloaded { .. }),
                    "client {t}: {gone:?}"
                );
                let stale = client.slice_in(&name, &Criterion::Output(0)).unwrap();
                match stale.body {
                    ResponseBody::Error { kind, .. } => {
                        assert_eq!(kind, ErrorKind::UnknownSession, "client {t}");
                    }
                    ref other => panic!("client {t}: unloaded slice answered {other:?}"),
                }
                let reloaded = client.load(&name, program, &input, None).unwrap();
                assert!(
                    matches!(reloaded.body, ResponseBody::Loaded { .. }),
                    "client {t}: {reloaded:?}"
                );
                let again = client.slice_in(&name, &Criterion::Output(0)).unwrap();
                assert_eq!(slice_of(again, "post-reload slice"), own_expected[0], "client {t}");
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let mut closer = SliceClient::builder().unix(&socket).connect().unwrap();
    let listing = closer.list().unwrap();
    match listing.body {
        ResponseBody::Sessions { ref sessions } => {
            let names: Vec<&str> = sessions.iter().map(|s| s.name.as_str()).collect();
            let expected_names: Vec<String> = (0..8).map(|t| format!("s{t}")).collect();
            assert_eq!(names, expected_names, "name-ascending listing");
            for info in sessions {
                assert_eq!(info.algo, "opt", "{}", info.name);
                assert!(info.resident_bytes > 0, "{}", info.name);
                assert_eq!(info.requests, 1, "{}: one slice since its reload", info.name);
            }
        }
        ref other => panic!("list answered {other:?}"),
    }
    let ack = closer.shutdown().unwrap();
    assert!(matches!(ack.body, ResponseBody::ShutdownAck), "got {ack:?}");

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    // Per client: 1 hello + 2 loads + 5 slices + 1 unload + 1 failed
    // slice = 10; the closer adds hello + list + shutdown.
    assert_eq!(parsed.counter_or_zero("server.requests"), 8 * 10 + 3);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 8 * 9 + 2);
    assert_eq!(parsed.counter_or_zero("server.handshakes"), 9);
    assert_eq!(parsed.counter_or_zero("server.failed"), 8);
    assert_eq!(parsed.counter_or_zero("server.connections"), 9);
    assert_eq!(parsed.counter_or_zero("server.sessions_loaded"), 16);
    assert_eq!(parsed.counter_or_zero("server.sessions_unloaded"), 8);
    assert_eq!(parsed.counter_or_zero("server.sessions_evicted"), 0);
    assert_eq!(parsed.counter_or_zero("server.sessions_rejected"), 0);
    // 8 live sessions under their names + 8 unloaded first lifetimes.
    assert_eq!(parsed.sessions.len(), 16, "{:?}", parsed.sessions.keys());
    for t in 0..8 {
        let live = &parsed.sessions[&format!("s{t}")];
        assert_eq!(live.counters["requests"], 1, "s{t}");
        assert!(!live.gauges.contains_key("evicted"), "s{t} was never evicted");
        let first = &parsed.sessions[&format!("s{t}#2")];
        assert_eq!(first.counters["requests"], 2, "s{t}#2");
        assert!(!first.gauges.contains_key("evicted"), "s{t}#2 was unloaded, not evicted");
    }
}

/// Under `--memory-budget-mb`, admitting a second session evicts the
/// idle first one (LRU), slicing the evicted session is a typed
/// `unknown_session` error, a re-`load` evicts back the other way and
/// still answers correctly, and both evictions are visible in the
/// summary counters and the per-session report sections.
#[test]
fn memory_budget_evicts_idle_sessions_lru_first() {
    let dir = work_dir("evict");
    // Two sessions of one program: a session's weight grows by the
    // shortcut closures its slices materialize, by more than the whole
    // of the small doubler program, so "either fits alone, warm, but not
    // two" needs two sessions of one size.
    let classify = write_program(&dir);
    let classify_str = classify.to_str().unwrap();
    let base = |extra: &[String]| -> Vec<String> {
        let mut args: Vec<String> =
            ["serve", classify_str, "--algo", "opt", "--input", INPUT, "--workers", "1"]
                .iter()
                .map(ToString::to_string)
                .collect();
        args.extend_from_slice(extra);
        args
    };

    // Discovery run: ask the server itself how many bytes each session
    // keeps resident, cold (the load ack) and after the slices the main
    // run asks of it — a session's weight grows by the shortcut closures
    // its slices materialize. Builds and walks are deterministic, so the
    // sizes transfer. A budget far above both makes the server re-weigh
    // after every slice, so `list` shows the grown weight.
    let sizes = run_stdio_script(
        &base(&["--memory-budget-mb".into(), "1024".into()]),
        &[
            Request::load(1, "s_a", classify_str, INPUT_VALUES, None),
            Request::slice_in(2, "s_a", &Criterion::Output(0)),
            Request::list(3),
            Request::load(4, "s_b", classify_str, INPUT_VALUES, None),
            Request::slice_in(5, "s_b", &Criterion::Output(0)),
            Request::list(6),
            // A fresh s_a, as the main run re-loads it.
            Request::load(7, "s_a", classify_str, INPUT_VALUES, None),
            Request::slice_in(8, "s_a", &Criterion::Output(1)),
            Request::list(9),
        ],
    );
    let resident = |body: &ResponseBody| -> u64 {
        match body {
            ResponseBody::Loaded { resident_bytes, .. } => *resident_bytes,
            other => panic!("discovery load answered {other:?}"),
        }
    };
    let listed = |id: u64, name: &str| -> u64 {
        match &sizes[&id] {
            ResponseBody::Sessions { sessions } => {
                sessions.iter().find(|s| s.name == name).expect("listed").resident_bytes
            }
            other => panic!("discovery list answered {other:?}"),
        }
    };
    let bytes_a = resident(&sizes[&1]);
    let bytes_b = resident(&sizes[&4]);
    let warm_a0 = listed(3, "s_a");
    let warm_b0 = listed(6, "s_b");
    let warm_a1 = listed(9, "s_a");
    assert!(warm_a0 > bytes_a, "a slice materializes shortcut closures");

    // Either session fits alone, even grown by its slices; a grown one
    // and a cold one together exceed the budget.
    let budget = (warm_a0 + bytes_b).min(warm_b0 + bytes_a) - 1;
    assert!(warm_a0.max(warm_b0).max(warm_a1) <= budget, "a session does not fit alone");
    let budget_mb = budget as f64 / (1024.0 * 1024.0);
    let report = dir.join("report.json");
    let by_id = run_stdio_script(
        &base(&[
            "--memory-budget-mb".into(),
            format!("{budget_mb}"),
            "--metrics-json".into(),
            report.to_str().unwrap().into(),
        ]),
        &[
            Request::load(1, "s_a", classify_str, INPUT_VALUES, None),
            Request::slice_in(2, "s_a", &Criterion::Output(0)),
            Request::load(3, "s_b", classify_str, INPUT_VALUES, None),
            Request::slice_in(4, "s_a", &Criterion::Output(1)),
            Request::slice_in(5, "s_b", &Criterion::Output(0)),
            Request::load(6, "s_a", classify_str, INPUT_VALUES, None),
            Request::slice_in(7, "s_a", &Criterion::Output(1)),
        ],
    );

    let expected = expected_slices();
    assert_eq!(resident(&by_id[&1]), bytes_a, "deterministic rebuild of s_a");
    match &by_id[&2] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected[0]),
        other => panic!("slice of s_a answered {other:?}"),
    }
    // Admitting s_b busts the budget, so the idle s_a is evicted…
    assert_eq!(resident(&by_id[&3]), bytes_b, "deterministic build of s_b");
    match &by_id[&4] {
        ResponseBody::Error { kind, message } => {
            assert_eq!(*kind, ErrorKind::UnknownSession, "{message}");
        }
        other => panic!("slice of the evicted s_a answered {other:?}"),
    }
    match &by_id[&5] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected[0]),
        other => panic!("slice of s_b answered {other:?}"),
    }
    // …and re-loading s_a evicts s_b right back, answers included.
    assert_eq!(resident(&by_id[&6]), bytes_a, "re-load after eviction");
    match &by_id[&7] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected[1]),
        other => panic!("slice of the re-loaded s_a answered {other:?}"),
    }

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 7);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 6);
    assert_eq!(parsed.counter_or_zero("server.failed"), 1);
    assert_eq!(parsed.counter_or_zero("server.sessions_loaded"), 3);
    assert_eq!(parsed.counter_or_zero("server.sessions_evicted"), 2);
    assert_eq!(parsed.counter_or_zero("server.sessions_unloaded"), 0);
    assert_eq!(parsed.counter_or_zero("server.sessions_rejected"), 0);
    assert_eq!(parsed.gauges.get("server.sessions_resident"), Some(&1.0));
    assert_eq!(parsed.gauges.get("server.sessions_resident_bytes"), Some(&(warm_a1 as f64)));

    // Three session lifetimes: the live s_a, its evicted first life
    // (suffixed), and the evicted s_b.
    let keys: Vec<&str> = parsed.sessions.keys().map(String::as_str).collect();
    assert_eq!(keys, ["s_a", "s_a#2", "s_b"]);
    let live = &parsed.sessions["s_a"];
    assert_eq!(live.counters["requests"], 1);
    assert!(!live.gauges.contains_key("evicted"));
    for evicted in ["s_a#2", "s_b"] {
        let session = &parsed.sessions[evicted];
        assert_eq!(session.counters["requests"], 1, "{evicted}");
        assert_eq!(session.gauges.get("evicted"), Some(&1.0), "{evicted}");
    }
    assert_eq!(live.gauges.get("resident_bytes"), Some(&(warm_a1 as f64)));
    assert_eq!(parsed.sessions["s_b"].gauges.get("resident_bytes"), Some(&(warm_b0 as f64)));

    // A report with session sections still satisfies the schema.
    let validate =
        bin().args(["metrics-validate", report.to_str().unwrap()]).output().unwrap();
    assert!(validate.status.success());
}

/// A session's per-criterion result cache under eviction pressure:
/// filling past `--cache-capacity` evicts LRU-first, the evicted entry
/// recomputes identically on the next miss, and the hit/miss split shows
/// up both in the server totals and the per-session report.
#[test]
fn session_result_cache_recomputes_identically_after_eviction() {
    let dir = work_dir("cache");
    let classify = write_program(&dir);
    let classify_str = classify.to_str().unwrap();
    let report = dir.join("report.json");
    let args: Vec<String> = [
        "serve",
        classify_str,
        "--algo",
        "opt",
        "--input",
        INPUT,
        "--workers",
        "1",
        "--cache-capacity",
        "2",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::load(1, "s", classify_str, INPUT_VALUES, None),
            Request::slice_in(2, "s", &Criterion::Output(0)), // miss: {0}
            Request::slice_in(3, "s", &Criterion::Output(1)), // miss: {0,1}
            Request::slice_in(4, "s", &Criterion::Output(2)), // miss, evicts 0: {1,2}
            Request::slice_in(5, "s", &Criterion::Output(0)), // miss again, evicts 1
            Request::slice_in(6, "s", &Criterion::Output(0)), // hit
        ],
    );

    assert!(matches!(by_id[&1], ResponseBody::Loaded { .. }), "{:?}", by_id[&1]);
    let expected = expected_slices();
    let slice = |id: u64| -> (Vec<u32>, bool) {
        match &by_id[&id] {
            ResponseBody::Slice { stmts, cached, .. } => (stmts.clone(), *cached),
            other => panic!("request {id} answered {other:?}"),
        }
    };
    assert_eq!(slice(2), (expected[0].clone(), false));
    assert_eq!(slice(3), (expected[1].clone(), false));
    assert_eq!(slice(4), (expected[2].clone(), false));
    // The evicted entry recomputes to the same answer, then caches again.
    assert_eq!(slice(5), (expected[0].clone(), false));
    assert_eq!(slice(6), (expected[0].clone(), true));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.cache_hits"), 1);
    assert_eq!(parsed.counter_or_zero("server.cache_misses"), 4);
    let session = &parsed.sessions["s"];
    assert_eq!(session.counters["requests"], 5);
    assert_eq!(session.counters["cache_hits"], 1);
    assert_eq!(session.counters["cache_misses"], 4);
}

/// A program whose compile+trace+graph build takes long enough (tens of
/// thousands of interpreted steps) that the loader pool is observably
/// still building while the single worker races ahead through the queue.
const SLOW_PROGRAM: &str = "
    global int acc[4];

    fn main() {
        int i;
        for (i = 0; i < 20000; i = i + 1) {
            acc[i % 4] = acc[i % 4] + i;
        }
        print acc[0];
        print acc[1];
    }";

/// The slice of `SLOW_PROGRAM`'s first output, computed in-process.
fn expected_slow_slice() -> Vec<u32> {
    let session = Session::compile(SLOW_PROGRAM).unwrap();
    let trace = session.run(Vec::new());
    let opt = session.opt(&trace, &OptConfig::default());
    let slice = opt.slice(&Criterion::Output(0)).unwrap();
    slice.stmts.iter().map(|s| s.index() as u32).collect()
}

/// The non-blocking load path end to end: `load` without `wait` is acked
/// with `loading` immediately, `list` shows the pending build, a
/// duplicate load and an eager slice answer the typed `loading` error,
/// slices against the default trace proceed meanwhile, a slice with
/// `wait` blocks until the build lands, and a failed background build
/// vanishes from the registry instead of wedging it.
#[test]
fn async_load_acks_immediately_and_wait_slices_block() {
    let dir = work_dir("async-load");
    let launch = write_program_b(&dir);
    let slow = dir.join("slow.minic");
    std::fs::write(&slow, SLOW_PROGRAM).unwrap();
    let slow_str = slow.to_str().unwrap();
    let ghost = dir.join("missing.minic");
    let report = dir.join("report.json");
    let args: Vec<String> = [
        "serve",
        launch.to_str().unwrap(),
        "--algo",
        "opt",
        "--input",
        "21",
        "--workers",
        "1",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::load_async(1, "slow", slow_str, &[], None),
            Request::list(2),
            Request::load_async(3, "slow", slow_str, &[], None),
            Request::slice_in(4, "slow", &Criterion::Output(0)),
            Request::slice(5, &Criterion::Output(0)),
            Request { wait: true, ..Request::slice_in(6, "slow", &Criterion::Output(0)) },
            Request::list(7),
            Request::load_async(8, "ghost", ghost.to_str().unwrap(), &[], None),
            Request { wait: true, ..Request::slice_in(9, "ghost", &Criterion::Output(0)) },
            Request::list(10),
        ],
    );

    match &by_id[&1] {
        ResponseBody::Loading { session } => assert_eq!(session, "slow"),
        other => panic!("async load should ack `loading`, got {other:?}"),
    }
    // The single worker reaches the `list` in microseconds; the build has
    // tens of milliseconds to go, so the pending entry is visible.
    match &by_id[&2] {
        ResponseBody::Sessions { sessions } => {
            assert_eq!(sessions.len(), 1);
            assert_eq!(sessions[0].name, "slow");
            assert!(sessions[0].loading, "list must show the pending build");
            assert_eq!(sessions[0].resident_bytes, 0);
            assert_eq!(sessions[0].algo, "opt");
        }
        other => panic!("list should answer sessions, got {other:?}"),
    }
    for id in [3u64, 4] {
        match &by_id[&id] {
            ResponseBody::Error { kind, .. } => assert_eq!(
                *kind,
                ErrorKind::Loading,
                "request {id} should take the typed loading error"
            ),
            other => panic!("request {id} should answer `loading`, got {other:?}"),
        }
    }
    match &by_id[&5] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(
            stmts,
            &expected_doubler_slice(),
            "the default trace answers while the load is in flight"
        ),
        other => panic!("default-trace slice should succeed, got {other:?}"),
    }
    match &by_id[&6] {
        ResponseBody::Slice { stmts, cached, .. } => {
            assert_eq!(stmts, &expected_slow_slice(), "wait slice answers after the build");
            assert!(!cached);
        }
        other => panic!("wait slice should succeed, got {other:?}"),
    }
    match &by_id[&7] {
        ResponseBody::Sessions { sessions } => {
            assert_eq!(sessions.len(), 1);
            assert_eq!(sessions[0].name, "slow");
            assert!(!sessions[0].loading, "the admitted session is resident");
            assert!(sessions[0].resident_bytes > 0);
            assert_eq!(sessions[0].requests, 1);
        }
        other => panic!("list should answer sessions, got {other:?}"),
    }
    match &by_id[&8] {
        ResponseBody::Loading { session } => assert_eq!(session, "ghost"),
        other => panic!("async load acks even a doomed build, got {other:?}"),
    }
    match &by_id[&9] {
        ResponseBody::Error { kind, .. } => assert_eq!(
            *kind,
            ErrorKind::UnknownSession,
            "a wait slice unblocks into `unknown session` when the build fails"
        ),
        other => panic!("request 9 should answer `unknown session`, got {other:?}"),
    }
    match &by_id[&10] {
        ResponseBody::Sessions { sessions } => {
            assert_eq!(sessions.len(), 1, "the failed build must not linger in the registry");
            assert_eq!(sessions[0].name, "slow");
        }
        other => panic!("list should answer sessions, got {other:?}"),
    }

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 10);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 7);
    // Two `loading` refusals, the unknown-session answer, and the failed
    // ghost build.
    assert_eq!(parsed.counter_or_zero("server.failed"), 4);
    assert_eq!(parsed.counter_or_zero("server.timeouts"), 0);
    assert_eq!(parsed.counter_or_zero("server.sessions_loaded"), 1);
    let session = &parsed.sessions["slow"];
    assert_eq!(session.counters["requests"], 1);
    assert_eq!(session.counters["cache_misses"], 1);
}

/// Deadlines apply to waiting, too: a `wait` slice against a session
/// whose build outlives `--timeout-ms` answers `timeout` instead of
/// blocking indefinitely, and the build still lands afterwards. A
/// `build:delay` fault makes every build outlive the deadline whatever
/// the host's speed: `SLOW_PROGRAM` alone builds in about the 40 ms
/// deadline in a release build.
#[test]
fn wait_slice_times_out_while_the_session_is_still_loading() {
    let dir = work_dir("wait-timeout");
    let launch = write_program_b(&dir);
    let slow = dir.join("slow.minic");
    std::fs::write(&slow, SLOW_PROGRAM).unwrap();
    let report = dir.join("report.json");
    let args: Vec<String> = [
        "serve",
        launch.to_str().unwrap(),
        "--input",
        "21",
        "--workers",
        "1",
        "--timeout-ms",
        "40",
        "--fault-plan",
        "build:delay=400ms",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::load_async(1, "slow", slow.to_str().unwrap(), &[], None),
            Request { wait: true, ..Request::slice_in(2, "slow", &Criterion::Output(0)) },
        ],
    );
    match &by_id[&1] {
        ResponseBody::Loading { session } => assert_eq!(session, "slow"),
        other => panic!("async load should ack `loading`, got {other:?}"),
    }
    match &by_id[&2] {
        ResponseBody::Error { kind, .. } => assert_eq!(*kind, ErrorKind::Timeout),
        other => panic!("the wait slice should time out, got {other:?}"),
    }

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 2);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 1);
    assert_eq!(parsed.counter_or_zero("server.timeouts"), 1);
    // Shutdown drains the loader: the build completes and is admitted
    // even though its requester already timed out.
    assert_eq!(parsed.counter_or_zero("server.sessions_loaded"), 1);
}

/// Unloading a session whose build is still in flight answers the typed
/// `loading` error instead of silently succeeding (and leaving the
/// background build to resurrect the session); once the build lands the
/// unload goes through, and a second unload answers `unknown session`.
#[test]
fn unload_while_loading_answers_the_typed_error() {
    let dir = work_dir("unload-loading");
    let launch = write_program_b(&dir);
    let slow = dir.join("slow.minic");
    std::fs::write(&slow, SLOW_PROGRAM).unwrap();
    let report = dir.join("report.json");
    let args: Vec<String> = [
        "serve",
        launch.to_str().unwrap(),
        "--input",
        "21",
        "--workers",
        "1",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::load_async(1, "slow", slow.to_str().unwrap(), &[], None),
            Request::unload(2, "slow"),
            Request { wait: true, ..Request::slice_in(3, "slow", &Criterion::Output(0)) },
            Request::unload(4, "slow"),
            Request::unload(5, "slow"),
        ],
    );

    match &by_id[&1] {
        ResponseBody::Loading { session } => assert_eq!(session, "slow"),
        other => panic!("async load should ack `loading`, got {other:?}"),
    }
    match &by_id[&2] {
        ResponseBody::Error { kind, message } => {
            assert_eq!(*kind, ErrorKind::Loading, "unload during a build is refused");
            assert!(message.contains("still loading"), "message: {message}");
        }
        other => panic!("unload of a loading session should error, got {other:?}"),
    }
    match &by_id[&3] {
        ResponseBody::Slice { stmts, .. } => {
            assert_eq!(stmts, &expected_slow_slice(), "the refused unload left the build intact")
        }
        other => panic!("wait slice should land after the build, got {other:?}"),
    }
    match &by_id[&4] {
        ResponseBody::Unloaded { session } => assert_eq!(session, "slow"),
        other => panic!("unload of the resident session should succeed, got {other:?}"),
    }
    match &by_id[&5] {
        ResponseBody::Error { kind, .. } => assert_eq!(*kind, ErrorKind::UnknownSession),
        other => panic!("re-unload should answer `unknown session`, got {other:?}"),
    }

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 5);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 3);
    assert_eq!(parsed.counter_or_zero("server.failed"), 2);
    assert_eq!(parsed.counter_or_zero("server.sessions_unloaded"), 1);
}

/// Snapshots over the protocol: an explicit `snapshot` load restores a
/// session from a `.dsnap` file, and `--snapshot-dir` turns named
/// program loads into a digest-keyed cache — a cold server populates it
/// (miss + write), a warm restart restores from it (hit + read) and
/// answers the same slice.
#[test]
fn serve_snapshot_loads_and_digest_cache_round_trip() {
    let dir = work_dir("serve-snapshot");
    let launch = write_program(&dir);
    let traced = write_program_b(&dir);
    let traced_str = traced.to_str().unwrap();
    let cache = dir.join("snapcache");
    let dsnap = dir.join("doubler.dsnap");
    let out = bin()
        .args(["snapshot", traced_str, "--input", "21", "-o", dsnap.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let report1 = dir.join("report1.json");
    let args1: Vec<String> = [
        "serve",
        launch.to_str().unwrap(),
        "--input",
        INPUT,
        "--snapshot-dir",
        cache.to_str().unwrap(),
        "--metrics-json",
        report1.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args1,
        &[
            Request::load_snapshot(1, "snap", dsnap.to_str().unwrap(), Some("opt")),
            Request::slice_in(2, "snap", &Criterion::Output(0)),
            Request::load(3, "cached", traced_str, INPUT_B, None),
            Request::slice_in(4, "cached", &Criterion::Output(0)),
        ],
    );
    match &by_id[&1] {
        ResponseBody::Loaded { session, algo, .. } => {
            assert_eq!(session, "snap");
            assert_eq!(algo, "opt");
        }
        other => panic!("snapshot load should answer `loaded`, got {other:?}"),
    }
    for id in [2u64, 4] {
        match &by_id[&id] {
            ResponseBody::Slice { stmts, .. } => assert_eq!(
                stmts,
                &expected_doubler_slice(),
                "request {id}: restored sessions answer the canonical slice"
            ),
            other => panic!("request {id} should answer a slice, got {other:?}"),
        }
    }
    let parsed = RunReport::from_json(&std::fs::read_to_string(&report1).unwrap())
        .expect("serve report satisfies the schema");
    assert!(parsed.counter_or_zero("snapshot.read_bytes") > 0, "explicit load reads the file");
    assert_eq!(parsed.counter_or_zero("snapshot.miss"), 1, "cold cache misses the named load");
    assert_eq!(parsed.counter_or_zero("snapshot.hit"), 0);
    assert!(parsed.counter_or_zero("snapshot.write_bytes") > 0, "the miss populates the cache");
    let entries: Vec<_> = std::fs::read_dir(&cache)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "dsnap"))
        .collect();
    assert_eq!(entries.len(), 1, "one digest-keyed entry: {entries:?}");

    // Same cache directory, fresh server: the named load restores from
    // the snapshot instead of replaying the trace.
    let report2 = dir.join("report2.json");
    let args2: Vec<String> = [
        "serve",
        launch.to_str().unwrap(),
        "--input",
        INPUT,
        "--snapshot-dir",
        cache.to_str().unwrap(),
        "--metrics-json",
        report2.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    let by_id = run_stdio_script(
        &args2,
        &[
            Request::load(1, "cached", traced_str, INPUT_B, None),
            Request::slice_in(2, "cached", &Criterion::Output(0)),
        ],
    );
    match &by_id[&1] {
        ResponseBody::Loaded { session, .. } => assert_eq!(session, "cached"),
        other => panic!("cached load should answer `loaded`, got {other:?}"),
    }
    match &by_id[&2] {
        ResponseBody::Slice { stmts, .. } => {
            assert_eq!(stmts, &expected_doubler_slice(), "the cache restore slices identically")
        }
        other => panic!("slice against the restored session should succeed, got {other:?}"),
    }
    let parsed = RunReport::from_json(&std::fs::read_to_string(&report2).unwrap())
        .expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("snapshot.hit"), 1, "warm cache restores the named load");
    assert_eq!(parsed.counter_or_zero("snapshot.miss"), 0);
    assert!(parsed.counter_or_zero("snapshot.read_bytes") > 0);
}

// --- TCP transport ---------------------------------------------------

/// Spawns `dynslice serve --tcp 127.0.0.1:0` plus `extra` flags and
/// returns the guarded child and the bound address read from `--port-file`
/// (written only after a successful bind, so polling it never races).
fn spawn_tcp_server(dir: &Path, extra: &[&str]) -> (ServerProcess, String) {
    let program = write_program(dir);
    let port_file = dir.join("port");
    let mut args: Vec<String> = [
        "serve",
        program.to_str().unwrap(),
        "--input",
        INPUT,
        "--tcp",
        "127.0.0.1:0",
        "--port-file",
        port_file.to_str().unwrap(),
    ]
    .iter()
    .map(ToString::to_string)
    .collect();
    args.extend(extra.iter().map(ToString::to_string));
    let child = bin()
        .args(&args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn_server();
    let start = Instant::now();
    let addr = loop {
        match std::fs::read_to_string(&port_file) {
            Ok(text) if text.ends_with('\n') => break text.trim().to_string(),
            _ => {}
        }
        assert!(start.elapsed() < Duration::from_secs(30), "port file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    };
    (child, addr)
}

/// A raw TCP conversation, bypassing `SliceClient` so tests control
/// exactly what crosses the wire (including protocol violations).
struct RawTcp {
    reader: BufReader<std::net::TcpStream>,
    writer: std::net::TcpStream,
    /// Bytes written to the server so far (newlines included).
    sent: u64,
    /// Bytes read from the server so far (newlines included).
    received: u64,
}

impl RawTcp {
    fn connect(addr: &str) -> Self {
        let stream = std::net::TcpStream::connect(addr).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
        let writer = stream.try_clone().unwrap();
        RawTcp { reader: BufReader::new(stream), writer, sent: 0, received: 0 }
    }

    fn send(&mut self, line: &str) {
        writeln!(self.writer, "{line}").unwrap();
        self.sent += line.len() as u64 + 1;
    }

    /// The next response line, or `None` on a clean EOF.
    fn read_response(&mut self) -> Option<Response> {
        let mut line = String::new();
        let n = self.reader.read_line(&mut line).unwrap();
        if n == 0 {
            return None;
        }
        self.received += n as u64;
        Some(Response::parse(line.trim_end()).unwrap())
    }

    fn hello(&mut self) {
        self.send(&Request::hello(0, dynslice::protocol::PROTO_VERSION).to_json());
        match self.read_response().expect("hello answered").body {
            ResponseBody::Hello { .. } => {}
            other => panic!("hello answered {other:?}"),
        }
    }
}

/// 8 concurrent TCP clients (via the builder, handshake included) get
/// answers byte-identical to a direct in-process `OptSlicer`, and the
/// report carries the connection, handshake, and byte counters.
#[test]
fn concurrent_tcp_clients_match_direct_slicer() {
    let dir = work_dir("tcp");
    let report = dir.join("report.json");
    let (child, addr) = spawn_tcp_server(
        &dir,
        &["--algo", "opt", "--workers", "4", "--metrics-json", report.to_str().unwrap()],
    );

    let expected = expected_slices();
    let handles: Vec<_> = (0..8)
        .map(|t: usize| {
            let addr = addr.clone();
            let expected = expected.clone();
            std::thread::spawn(move || {
                let mut client = SliceClient::builder()
                    .tcp(addr)
                    .timeout(Duration::from_secs(30))
                    .connect()
                    .unwrap();
                let info = client.server().expect("builder handshakes");
                assert!(info.server.starts_with("dynslice/"), "client {t}: {info:?}");
                assert!(
                    (info.proto_min..=info.proto_max)
                        .contains(&dynslice::protocol::PROTO_VERSION),
                    "client {t}: {info:?}"
                );
                for round in 0..3 {
                    let k = (t + round) % 4;
                    let response = client.slice(&Criterion::Output(k)).unwrap();
                    match response.body {
                        ResponseBody::Slice { ref algo, ref stmts, .. } => {
                            assert_eq!(algo, "opt", "client {t}");
                            assert_eq!(stmts, &expected[k], "client {t}, out:{k}");
                        }
                        ref other => panic!("client {t}: unexpected response {other:?}"),
                    }
                }
            })
        })
        .collect();
    for handle in handles {
        handle.join().unwrap();
    }

    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    let ack = closer.shutdown().unwrap();
    assert!(matches!(ack.body, ResponseBody::ShutdownAck), "got {ack:?}");

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.requests"), 8 * 4 + 2);
    assert_eq!(parsed.counter_or_zero("server.responses_ok"), 8 * 4 + 1);
    assert_eq!(parsed.counter_or_zero("server.connections"), 9);
    assert_eq!(parsed.counter_or_zero("server.handshakes"), 9);
    let peak = parsed.gauges["server.connections_peak"];
    assert!((1.0..=9.0).contains(&peak), "peak {peak}");
    assert!(parsed.counter_or_zero("net.read_bytes") > 0);
    assert!(parsed.counter_or_zero("net.write_bytes") > 0);
}

/// The handshake gate: a first line that is not `hello` is answered with
/// the typed `handshake_required` error and the connection closes; an
/// unsupported protocol revision gets `unsupported_proto`; the builder
/// surfaces both as connect errors.
#[test]
fn tcp_requires_the_versioned_hello() {
    let dir = work_dir("tcp-hello");
    let (child, addr) = spawn_tcp_server(&dir, &[]);

    // Skipping hello: typed error, then EOF.
    let mut skipper = RawTcp::connect(&addr);
    skipper.send(&Request::slice(1, &Criterion::Output(0)).to_json());
    match skipper.read_response().expect("answered before close").body {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::HandshakeRequired),
        other => panic!("hello-less request answered {other:?}"),
    }
    assert!(skipper.read_response().is_none(), "connection closes after the refusal");

    // Garbage first line: same refusal (the server cannot even tell the
    // id), then EOF.
    let mut garbler = RawTcp::connect(&addr);
    garbler.send("this is not json");
    match garbler.read_response().expect("answered before close").body {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::HandshakeRequired),
        other => panic!("garbage first line answered {other:?}"),
    }
    assert!(garbler.read_response().is_none());

    // Version mismatch: typed `unsupported_proto`, then EOF.
    let mut future = RawTcp::connect(&addr);
    future.send(&Request::hello(7, 99).to_json());
    match future.read_response().expect("answered before close").body {
        ResponseBody::Error { kind, ref message } => {
            assert_eq!(kind, ErrorKind::UnsupportedProto);
            assert!(message.contains("99"), "{message}");
        }
        other => panic!("future hello answered {other:?}"),
    }
    assert!(future.read_response().is_none());

    // The builder turns the mismatch into a connect error.
    let Err(err) = SliceClient::builder().tcp(addr.clone()).proto(99).connect() else {
        panic!("proto 99 must be refused");
    };
    assert!(err.to_string().contains("unsupported_proto"), "{err}");

    // A well-versioned hello still gets through after all that.
    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// `--max-connections 2`: the third concurrent client is answered with a
/// typed `busy` error and closed, the builder's retry/backoff wins once
/// a slot frees up, and the report counts the rejection.
#[test]
fn tcp_max_connections_answers_busy() {
    let dir = work_dir("tcp-busy");
    let report = dir.join("report.json");
    let (child, addr) = spawn_tcp_server(
        &dir,
        &["--max-connections", "2", "--metrics-json", report.to_str().unwrap()],
    );

    let first = SliceClient::builder().tcp(addr.clone()).connect().unwrap();
    let mut second = SliceClient::builder().tcp(addr.clone()).connect().unwrap();

    // Over the cap: the raw socket reads one `busy` line, then EOF.
    let mut third = RawTcp::connect(&addr);
    match third.read_response().expect("the cap answers before closing").body {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::Busy),
        other => panic!("over-cap connect answered {other:?}"),
    }
    assert!(third.read_response().is_none(), "over-cap connection closes");

    // Without retries the builder reports busy immediately...
    let Err(err) = SliceClient::builder().tcp(addr.clone()).connect() else {
        panic!("the third connection must bounce off the cap");
    };
    assert!(err.to_string().contains("busy"), "{err}");

    // ...and with retries it gets in once `first` hangs up.
    let freer = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(300));
        drop(first);
    });
    let mut retried = SliceClient::builder()
        .tcp(addr)
        .retries(20)
        .backoff(Duration::from_millis(50))
        .connect()
        .expect("retries outlast the cap");
    freer.join().unwrap();
    let response = retried.slice(&Criterion::Output(0)).unwrap();
    assert!(matches!(response.body, ResponseBody::Slice { .. }), "{response:?}");

    assert!(matches!(second.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert!(parsed.counter_or_zero("server.rejected_busy") >= 2, "raw + builder rejections");
    assert_eq!(
        parsed.counter_or_zero("server.connections"),
        3,
        "bounced clients are never admitted"
    );
}

/// Graceful shutdown mid-request: a client whose query is in flight when
/// another connection sends `shutdown` still gets its answer (the queue
/// drains) plus a final typed `shutting_down` line — never a bare EOF.
#[test]
fn tcp_shutdown_mid_request_sends_shutting_down() {
    let dir = work_dir("tcp-shutdown");
    let (child, addr) =
        spawn_tcp_server(&dir, &["--workers", "1", "--fault-plan", "request:delay=700ms@1"]);

    let mut slow = RawTcp::connect(&addr);
    slow.hello();
    slow.send(&Request::slice(41, &Criterion::Output(0)).to_json());
    // Ask for shutdown once the worker has picked the slow job up: the
    // connection's own `health` is answered after its slice is queued.
    loop {
        slow.send(&Request::health(42).to_json());
        match slow.read_response().expect("health answered").body {
            ResponseBody::Health { queue_depth: 0, .. } => break,
            ResponseBody::Health { .. } => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("health answered {other:?}"),
        }
    }
    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));

    // Drain `slow`'s connection to EOF: the in-flight slice and the
    // farewell both arrive, in either order (the worker and the
    // connection reader race benignly).
    let mut saw_slice = false;
    let mut saw_farewell = false;
    while let Some(response) = slow.read_response() {
        match response.body {
            ResponseBody::Slice { ref stmts, .. } => {
                assert_eq!(response.id, 41);
                assert_eq!(stmts, &expected_slices()[0]);
                saw_slice = true;
            }
            ResponseBody::Error { kind: ErrorKind::ShuttingDown, .. } => saw_farewell = true,
            other => panic!("unexpected response during shutdown: {other:?}"),
        }
    }
    assert!(saw_slice, "the drained queue still answers the in-flight slice");
    assert!(saw_farewell, "the close is announced, not a bare EOF");

    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The request-line cap: an overlong line is answered with the typed
/// `oversized` error on TCP and stdio alike, in bounded memory, and the
/// connection stays usable afterwards.
#[test]
fn oversized_lines_get_the_typed_error_on_every_transport() {
    let dir = work_dir("oversized");
    let (child, addr) = spawn_tcp_server(&dir, &["--max-line-bytes", "512"]);

    let mut client = RawTcp::connect(&addr);
    client.hello();
    client.send(&format!("{{\"pad\":\"{}\"}}", "x".repeat(4096)));
    match client.read_response().expect("oversized line answered").body {
        ResponseBody::Error { kind, ref message } => {
            assert_eq!(kind, ErrorKind::Oversized);
            assert!(message.contains("512"), "{message}");
        }
        other => panic!("oversized line answered {other:?}"),
    }
    // The overflow was discarded cleanly: the next request works.
    client.send(&Request::slice(2, &Criterion::Output(1)).to_json());
    match client.read_response().expect("follow-up answered").body {
        ResponseBody::Slice { ref stmts, .. } => assert_eq!(stmts, &expected_slices()[1]),
        other => panic!("follow-up slice answered {other:?}"),
    }
    client.send(&Request::shutdown(3).to_json());
    assert!(matches!(
        client.read_response().expect("ack").body,
        ResponseBody::ShutdownAck
    ));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    // Same cap on the handshake-free stdio transport.
    let dir = work_dir("oversized-stdio");
    let program = write_program(&dir);
    let mut child = bin()
        .args([
            "serve",
            program.to_str().unwrap(),
            "--input",
            INPUT,
            "--max-line-bytes",
            "512",
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn_server();
    {
        let mut stdin = child.stdin.take().unwrap();
        writeln!(stdin, "{{\"pad\":\"{}\"}}", "y".repeat(4096)).unwrap();
        writeln!(stdin, "{}", Request::slice(2, &Criterion::Output(0)).to_json()).unwrap();
    }
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success());
    let mut lines = BufReader::new(&out.stdout[..]).lines();
    let first = Response::parse(&lines.next().expect("oversized answered").unwrap()).unwrap();
    assert!(
        matches!(first.body, ResponseBody::Error { kind: ErrorKind::Oversized, .. }),
        "{first:?}"
    );
    let second = Response::parse(&lines.next().expect("slice answered").unwrap()).unwrap();
    assert!(matches!(second.body, ResponseBody::Slice { .. }), "{second:?}");
}

/// A connection that goes quiet past `--idle-timeout-ms` is reaped: the
/// client sees EOF, and fresh connections are still served.
#[test]
fn tcp_idle_connections_are_reaped() {
    let dir = work_dir("tcp-idle");
    let (child, addr) = spawn_tcp_server(&dir, &["--idle-timeout-ms", "200"]);

    let started = Instant::now();
    let mut idler = RawTcp::connect(&addr);
    idler.hello();
    assert!(idler.read_response().is_none(), "the reaped connection drains to EOF");
    let waited = started.elapsed();
    assert!(waited >= Duration::from_millis(200), "reaped too early: {waited:?}");

    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The idle limit counts complete lines, not bytes: a client that
/// trickles one byte every 120 ms and never finishes its line is reaped
/// once `--idle-timeout-ms` passes since its last line, however steadily
/// the bytes keep coming.
#[test]
fn tcp_partial_line_trickle_is_reaped() {
    let dir = work_dir("tcp-trickle");
    let (child, addr) = spawn_tcp_server(&dir, &["--idle-timeout-ms", "300"]);

    let mut trickler = RawTcp::connect(&addr);
    trickler.hello();
    let started = Instant::now();
    let mut writer = trickler.writer.try_clone().unwrap();
    // Bytes keep coming for up to 5 s, or until the server hangs up.
    let dripping = std::thread::spawn(move || {
        for _ in 0..40 {
            if writer.write_all(b"{").is_err() {
                break;
            }
            std::thread::sleep(Duration::from_millis(120));
        }
    });
    // The reap closes the socket; a byte that lands just before the close
    // may turn the FIN into a reset, which is the same hang-up.
    let mut line = String::new();
    match trickler.reader.read_line(&mut line) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("expected the reap's hang-up, got {other:?} with {line:?}"),
    }
    let waited = started.elapsed();
    assert!(waited >= Duration::from_millis(250), "reaped too early: {waited:?}");
    assert!(waited < Duration::from_secs(3), "the trickle kept the connection alive: {waited:?}");
    dripping.join().unwrap();

    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// `--socket` and `--tcp` listen concurrently: the Unix side keeps the
/// historical handshake-free wire format (exercised through the
/// deprecated `connect_unix` shim), the TCP side demands hello, both
/// answer identically, and the per-session report attributes leases to
/// the two distinct client connections.
#[test]
#[allow(deprecated)]
fn unix_and_tcp_serve_concurrently_with_unix_handshake_free() {
    let dir = work_dir("dual");
    let socket = dir.join("dual.sock");
    let report = dir.join("report.json");
    let doubler = write_program_b(&dir);
    let (child, addr) = spawn_tcp_server(
        &dir,
        &["--socket", socket.to_str().unwrap(), "--metrics-json", report.to_str().unwrap()],
    );

    // The pre-TCP wire format: first line is a bare slice, no hello.
    let mut unix = SliceClient::connect_unix(&socket).unwrap();
    assert!(unix.server().is_none(), "the shim does not handshake");
    let expected = expected_slices();
    match unix.slice(&Criterion::Output(0)).unwrap().body {
        ResponseBody::Slice { ref stmts, .. } => assert_eq!(stmts, &expected[0]),
        ref other => panic!("unix slice answered {other:?}"),
    }

    let mut tcp = SliceClient::builder().tcp(addr).connect().unwrap();
    match tcp.slice(&Criterion::Output(0)).unwrap().body {
        ResponseBody::Slice { ref stmts, .. } => assert_eq!(stmts, &expected[0]),
        ref other => panic!("tcp slice answered {other:?}"),
    }

    // Both connections lease one named session; the report attributes
    // the leases to two distinct client connections.
    let doubler_str = doubler.to_str().unwrap();
    assert!(matches!(
        tcp.load("shared", doubler_str, INPUT_B, None).unwrap().body,
        ResponseBody::Loaded { .. }
    ));
    for client in [&mut unix, &mut tcp] {
        match client.slice_in("shared", &Criterion::Output(0)).unwrap().body {
            ResponseBody::Slice { ref stmts, .. } => {
                assert_eq!(stmts, &expected_doubler_slice())
            }
            ref other => panic!("shared slice answered {other:?}"),
        }
    }

    assert!(matches!(unix.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let text = std::fs::read_to_string(&report).unwrap();
    let parsed = RunReport::from_json(&text).expect("serve report satisfies the schema");
    assert_eq!(parsed.counter_or_zero("server.connections"), 2);
    assert_eq!(parsed.counter_or_zero("server.handshakes"), 1, "only the TCP client hellos");
    let shared = &parsed.sessions["shared"];
    assert_eq!(shared.counters["client_connections"], 2, "unix + tcp leased it");
    assert_eq!(shared.counters["leases"], 2, "one checkout per slice");
    assert!(shared.gauges["lease_peak"] >= 1.0);
}

// --- Wake-on-event accept and shutdown -------------------------------

/// An idle, handshaked TCP client with no work in flight still gets the
/// farewell when another client asks for shutdown: `shutting_down`, then
/// EOF, and the server exits 0.
#[test]
fn idle_tcp_client_gets_the_farewell_on_shutdown() {
    let dir = work_dir("tcp-idle-farewell");
    let (child, addr) = spawn_tcp_server(&dir, &[]);

    let mut idle = RawTcp::connect(&addr);
    idle.hello();
    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));

    match idle.read_response().expect("the farewell arrives before the close").body {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("idle client got {other:?}"),
    }
    assert!(idle.read_response().is_none(), "EOF follows the farewell");
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// SIGTERM is a graceful shutdown: with an idle connection open the
/// server exits 0 within 5 s, the connection gets the farewell, and the
/// report it writes passes `metrics-validate`.
#[test]
fn sigterm_shuts_down_gracefully_with_a_valid_report() {
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }
    const SIGTERM: i32 = 15;
    let dir = work_dir("sigterm");
    let report = dir.join("report.json");
    let (child, addr) = spawn_tcp_server(&dir, &["--metrics-json", report.to_str().unwrap()]);

    // An answered hello proves `serve` runs, so its handler is installed.
    let mut idle = RawTcp::connect(&addr);
    idle.hello();
    let pid = i32::try_from(child.id()).unwrap();
    // SAFETY: `kill(2)` takes plain integers; the pid is our own child,
    // not yet reaped, so it cannot name another process.
    assert_eq!(unsafe { kill(pid, SIGTERM) }, 0);

    match idle.read_response().expect("the farewell arrives before the close").body {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::ShuttingDown),
        other => panic!("idle client got {other:?}"),
    }
    assert!(idle.read_response().is_none(), "EOF follows the farewell");
    let out = child.wait_for_exit(Duration::from_secs(5));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let validated = bin().args(["metrics-validate", report.to_str().unwrap()]).output().unwrap();
    assert!(validated.status.success(), "{}", String::from_utf8_lossy(&validated.stderr));
    let parsed = RunReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
    assert_eq!(parsed.counter_or_zero("server.connections"), 1, "the wake dial is not counted");
    assert_eq!(parsed.counter_or_zero("server.handshakes"), 1);
}

/// When `serve` returns, its listeners are closed: the TCP port binds
/// again and the Unix socket no longer accepts — checked through a hard
/// link, which outlives the server's removal of the socket path — so no
/// acceptor is left blocked holding one.
#[test]
fn serve_releases_its_listeners_when_it_returns() {
    let dir = work_dir("release");
    let socket = dir.join("release.sock");
    let alias = dir.join("alias.sock");
    std::fs::remove_file(&alias).ok();
    let session = Session::compile(PROGRAM).unwrap();
    let trace = session.run(INPUT_VALUES.to_vec());
    let reg = Registry::disabled();
    let config = SlicerConfig::default();
    let opt = OwnedSlicer::from_trace(session, &trace, Algo::Opt, &config, &reg).unwrap();
    let manager = SessionManager::new(Algo::Opt, config, 4, None, 16);
    let default = manager.default_entry(opt);
    let tcp = Transport::tcp("127.0.0.1:0").unwrap();
    let addr = tcp.local_addr().unwrap();
    let unix = Transport::unix(socket.clone()).unwrap();
    std::fs::hard_link(&socket, &alias).unwrap();

    std::thread::scope(|scope| {
        let server = scope
            .spawn(|| serve(&default, &manager, &ServeConfig::default(), vec![tcp, unix], &reg));
        // Both listeners serve; the Unix connection stays open (and idle)
        // across the shutdown.
        let _idle_unix = UnixStream::connect(&alias).expect("the alias reaches the listener");
        let mut client = SliceClient::builder().tcp(addr.to_string()).connect().unwrap();
        assert!(matches!(client.shutdown().unwrap().body, ResponseBody::ShutdownAck));
        server.join().unwrap().expect("serve returns cleanly");
    });

    std::net::TcpListener::bind(addr).expect("the TCP port is free again");
    let err = UnixStream::connect(&alias).expect_err("the Unix listener is closed");
    assert_eq!(err.kind(), std::io::ErrorKind::ConnectionRefused);
    drop(Transport::unix(socket).expect("the socket path binds again"));
    std::fs::remove_file(&alias).ok();
}

/// One-shot clients are answered at once: 20 sequential dial → `hello`
/// → close cycles have a median under 5 ms (an acceptor that sleeps
/// between polls puts a 10 ms floor under each).
#[test]
fn one_shot_dials_are_answered_without_an_accept_delay() {
    let dir = work_dir("oneshot");
    let (child, addr) = spawn_tcp_server(&dir, &[]);

    let mut cycles: Vec<Duration> = (0..20)
        .map(|_| {
            let started = Instant::now();
            let mut client = RawTcp::connect(&addr);
            client.hello();
            drop(client);
            started.elapsed()
        })
        .collect();
    cycles.sort();
    let median = cycles[cycles.len() / 2];
    assert!(median < Duration::from_millis(5), "median cycle {median:?}; all: {cycles:?}");

    let mut closer = SliceClient::builder().tcp(addr).connect().unwrap();
    assert!(matches!(closer.shutdown().unwrap().body, ResponseBody::ShutdownAck));
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}

/// The `--metrics-json` report's server section, pinned: one scripted TCP
/// session touches every `server.*`/`net.*` key, and the report must hold
/// exactly those keys, each as the kind (counter or gauge) it has always
/// been, with the values the script implies. A final `health` reply must
/// agree with the report's `server.panics` and `server.sessions_resident`.
#[test]
fn report_pins_every_server_counter() {
    // Long enough that its paged graph spills pages the first slice must
    // read back (and so reach the `paged_read` fault point); its OPT
    // build is far over the memory budget below.
    const LOOPY: &str = "
        global int a[1];

        fn main() {
            int i;
            for (i = 0; i < 3000; i = i + 1) { a[0] = a[0] + i; }
            print a[0];
        }";
    let dir = work_dir("report-pin");
    let doubler = write_program_b(&dir);
    let doubler = doubler.to_str().unwrap();
    let loopy = dir.join("loopy.minic");
    std::fs::write(&loopy, LOOPY).unwrap();
    let loopy = loopy.to_str().unwrap();
    let report = dir.join("report.json");
    // The paged slice of LOOPY at one resident page still misses on about
    // 6,000 of its 9,000 page lookups: the walk alternates between the
    // tiles of two long channels, and one page cannot hold both, so the
    // shared cache thrashes (at two pages it misses about 40 times). An
    // unoptimized build runs every request several times slower, so the
    // deadline scales with the build, and the slow job's delay stays twice
    // the deadline so that job still overruns it.
    let deadline_ms: u64 = if cfg!(debug_assertions) { 5_000 } else { 500 };
    let timeout = deadline_ms.to_string();
    let faults = format!(
        "request:panic@5,request:panic@6,request:delay={}ms@15,paged_read:err@1",
        2 * deadline_ms
    );
    let (child, addr) = spawn_tcp_server(
        &dir,
        &[
            "--workers",
            "1",
            "--loaders",
            "1",
            "--queue-depth",
            "1",
            "--timeout-ms",
            &timeout,
            "--max-connections",
            "2",
            "--max-line-bytes",
            "512",
            "--max-sessions",
            "1",
            // ~20 KiB: every doubler and the paged loop fit, the OPT loop
            // (~70 KiB) does not.
            "--memory-budget-mb",
            "0.02",
            // One resident label page keeps the paged session well inside
            // the budget after its slice pages labels in.
            "--resident-blocks",
            "1",
            "--fault-plan",
            // `request` fires once per job a worker picks up: jobs 5 and 6
            // are the two slices against `d1`, job 15 is the slow slice.
            &faults,
            "--metrics-json",
            report.to_str().unwrap(),
        ],
    );

    let mut a = RawTcp::connect(&addr);
    let ask = |a: &mut RawTcp, line: String| -> ResponseBody {
        a.send(&line);
        a.read_response().expect("answered").body
    };
    let kind = |body: &ResponseBody| match body {
        ResponseBody::Error { kind, .. } => Some(*kind),
        _ => None,
    };
    let out0 = Criterion::Output(0);
    assert!(matches!(ask(&mut a, Request::hello(1, 1).to_json()), ResponseBody::Hello { .. }));
    match ask(&mut a, Request::health(2).to_json()) {
        ResponseBody::Health { status, sessions, panics, .. } => {
            assert_eq!((status.as_str(), sessions, panics), ("ok", 0, 0));
        }
        other => panic!("health answered {other:?}"),
    }
    // The default trace: a miss, a hit, an unknown criterion.
    let first = ask(&mut a, Request::slice(3, &out0).to_json());
    assert!(matches!(first, ResponseBody::Slice { cached: false, .. }), "{first:?}");
    let second = ask(&mut a, Request::slice(4, &out0).to_json());
    assert!(matches!(second, ResponseBody::Slice { cached: true, .. }), "{second:?}");
    let unknown = ask(&mut a, Request::slice(5, &Criterion::Output(99)).to_json());
    assert_eq!(kind(&unknown), Some(ErrorKind::UnknownCriterion));
    // A malformed line and an oversized one.
    assert_eq!(kind(&ask(&mut a, "not json".into())), Some(ErrorKind::BadRequest));
    let oversized = format!("{{\"pad\":\"{}\"}}", "x".repeat(1024));
    assert_eq!(kind(&ask(&mut a, oversized)), Some(ErrorKind::Oversized));
    // Two panics quarantine `d1`.
    let load = |id, name: &str, program: &str, algo| {
        Request::load(id, name, program, INPUT_B, algo).to_json()
    };
    assert!(matches!(ask(&mut a, load(8, "d1", doubler, None)), ResponseBody::Loaded { .. }));
    for id in [9, 10] {
        let panicked = ask(&mut a, Request::slice_in(id, "d1", &out0).to_json());
        assert_eq!(kind(&panicked), Some(ErrorKind::Internal), "{panicked:?}");
    }
    // `d2` is admitted, the OPT loop is over budget, and the paged loop
    // evicts `d2` (one session at most), answers through a retried page
    // read, and is unloaded.
    assert!(matches!(ask(&mut a, load(11, "d2", doubler, None)), ResponseBody::Loaded { .. }));
    let over = ask(&mut a, load(12, "big", loopy, None));
    assert_eq!(kind(&over), Some(ErrorKind::OverBudget), "{over:?}");
    let paged = ask(&mut a, load(13, "p", loopy, Some("paged")));
    assert!(matches!(paged, ResponseBody::Loaded { .. }), "{paged:?}");
    let sliced = ask(&mut a, Request::slice_in(14, "p", &out0).to_json());
    assert!(matches!(sliced, ResponseBody::Slice { cached: false, .. }), "{sliced:?}");
    let unloaded = ask(&mut a, Request::unload(15, "p").to_json());
    assert!(matches!(unloaded, ResponseBody::Unloaded { .. }), "{unloaded:?}");
    // An asynchronous load, waited on by the next slice.
    let loading = Request::load_async(16, "d3", doubler, INPUT_B, None).to_json();
    assert!(matches!(ask(&mut a, loading), ResponseBody::Loading { .. }));
    let waited = Request { wait: true, ..Request::slice_in(17, "d3", &out0) }.to_json();
    assert!(matches!(ask(&mut a, waited), ResponseBody::Slice { cached: false, .. }));
    let resident_bytes = match ask(&mut a, Request::list(18).to_json()) {
        ResponseBody::Sessions { sessions } => {
            assert_eq!(sessions.len(), 2, "d3 resident, d1 quarantined: {sessions:?}");
            sessions.iter().map(|s| s.resident_bytes).sum::<u64>()
        }
        other => panic!("list answered {other:?}"),
    };

    // The slow slice holds the only worker for twice the deadline: once
    // `health` shows it dequeued, one request fills the one-slot queue
    // and the next is rejected. Both the slow slice and the queued one
    // outlive the deadline.
    a.send(&Request::slice(19, &out0).to_json());
    let mut replies = BTreeMap::new();
    let mut polls = 0;
    loop {
        polls += 1;
        a.send(&Request::health(100 + polls).to_json());
        let reply = a.read_response().expect("health answered");
        match reply.body {
            ResponseBody::Health { queue_depth: 0, .. } => break,
            ResponseBody::Health { .. } => std::thread::sleep(Duration::from_millis(2)),
            other => panic!("health poll answered {other:?}"),
        }
    }
    a.send(&Request::slice(20, &Criterion::Output(1)).to_json());
    a.send(&Request::slice(21, &Criterion::Output(2)).to_json());
    while replies.len() < 3 {
        let reply = a.read_response().expect("answered");
        replies.insert(reply.id, reply.body);
    }
    assert_eq!(kind(&replies[&19]), Some(ErrorKind::Timeout), "{:?}", replies[&19]);
    assert_eq!(kind(&replies[&20]), Some(ErrorKind::Timeout), "{:?}", replies[&20]);
    assert_eq!(kind(&replies[&21]), Some(ErrorKind::Rejected), "{:?}", replies[&21]);

    // A second connection fills the cap; a third bounces off it.
    let mut b = RawTcp::connect(&addr);
    b.hello();
    let mut c = RawTcp::connect(&addr);
    assert_eq!(kind(&c.read_response().expect("busy").body), Some(ErrorKind::Busy));
    assert!(c.read_response().is_none());
    let (health_panics, health_sessions) = match ask(&mut a, Request::health(40).to_json()) {
        ResponseBody::Health {
            status, sessions, loading, quarantined, panics, retries, ..
        } => {
            assert_eq!(status, "degraded");
            assert_eq!((loading, quarantined, retries), (0, 1, 1));
            (panics, sessions)
        }
        other => panic!("health answered {other:?}"),
    };
    b.send(&Request::shutdown(50).to_json());
    assert!(matches!(b.read_response().expect("ack").body, ResponseBody::ShutdownAck));
    assert!(b.read_response().is_none());
    let farewell = a.read_response().expect("farewell");
    assert_eq!(kind(&farewell.body), Some(ErrorKind::ShuttingDown));
    assert!(a.read_response().is_none());
    let out = child.wait_for_exit(Duration::from_secs(30));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));

    let parsed = RunReport::from_json(&std::fs::read_to_string(&report).unwrap()).unwrap();
    let ours = |k: &&String| k.starts_with("server.") || k.starts_with("net.");
    let counters: BTreeMap<&str, u64> =
        parsed.counters.iter().filter(|(k, _)| ours(k)).map(|(k, v)| (k.as_str(), *v)).collect();
    let gauges: BTreeMap<&str, f64> =
        parsed.gauges.iter().filter(|(k, _)| ours(k)).map(|(k, v)| (k.as_str(), *v)).collect();
    // 22 lines on `a` besides the polls, plus b's hello and shutdown.
    let requests = 24 + polls;
    // Every answer but the errors (9 of them on `a`) and the shutdown ack
    // is an ok: a's answers, the polls, and b's hello.
    let ok = 14 + polls;
    let expected_counters: BTreeMap<&str, u64> = [
        ("server.requests", requests),
        ("server.responses_ok", ok),
        ("server.cache_hits", 1),
        ("server.cache_misses", 3),
        ("server.timeouts", 2),
        ("server.rejected", 1),
        ("server.bad_requests", 1),
        // Unknown criterion, two panics, the over-budget load.
        ("server.failed", 4),
        ("server.connections", 2),
        ("server.rejected_busy", 1),
        ("server.handshakes", 2),
        ("server.oversized", 1),
        ("net.read_bytes", a.sent + b.sent + c.sent),
        ("net.write_bytes", a.received + b.received + c.received),
        ("server.sessions_loaded", 4),
        ("server.sessions_evicted", 1),
        ("server.sessions_unloaded", 1),
        ("server.sessions_rejected", 1),
        ("server.sessions_quarantined", 1),
        ("server.panics", 2),
        ("server.retries", 1),
    ]
    .into_iter()
    .collect();
    assert_eq!(counters, expected_counters);
    let expected_gauges: BTreeMap<&str, f64> = [
        ("server.connections_peak", 2.0),
        ("server.in_flight_peak", 1.0),
        ("server.queue_peak", 1.0),
        ("server.load_queue_peak", 1.0),
        ("server.sessions_resident", 1.0),
        ("server.sessions_resident_bytes", resident_bytes as f64),
        ("server.workers", 1.0),
        ("server.loaders", 1.0),
    ]
    .into_iter()
    .collect();
    assert_eq!(gauges, expected_gauges);
    assert_eq!(health_panics, counters["server.panics"]);
    assert_eq!(health_sessions as f64, gauges["server.sessions_resident"]);
}
