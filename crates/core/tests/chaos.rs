//! Chaos tests of `dynslice serve` under the deterministic fault plan:
//! injected request panics, build panics, and paged-read I/O errors must
//! each surface as a typed error (or be absorbed by retry) while the
//! server keeps answering, quarantines repeat offenders, reports itself
//! `degraded` over the pre-handshake `health` op, and still shuts down
//! gracefully with a schema-valid metrics report whose `faults.*`
//! counters reconcile with `server.panics`/`server.retries`.

mod common;

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use common::SpawnServer as _;
use dynslice::protocol::{ErrorKind, Request, Response, ResponseBody};
use dynslice::{Criterion, OptConfig, RunReport, Session, Slicer as _};

/// The same doubler every serve test uses: small enough that a chaos
/// script stays fast, real enough that slices mean something.
const PROGRAM: &str = "
    global int a[2];

    fn main() {
        a[0] = input();
        a[1] = a[0] * 2;
        print a[1];
    }";

const INPUT: &[i64] = &[21];

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dynslice"))
}

fn work_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynslice-chaos-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_program(dir: &Path) -> PathBuf {
    let path = dir.join("doubler.minic");
    std::fs::write(&path, PROGRAM).unwrap();
    path
}

/// The doubler's only slice, computed in-process — the byte-identical
/// answer every undamaged session must keep producing mid-chaos.
fn expected_slice() -> Vec<u32> {
    let session = Session::compile(PROGRAM).unwrap();
    let trace = session.run(INPUT.to_vec());
    let opt = session.opt(&trace, &OptConfig::default());
    let slice = opt.slice(&Criterion::Output(0)).unwrap();
    slice.stmts.iter().map(|s| s.index() as u32).collect()
}

/// Runs a stdio server with `args`, feeds it `requests` one at a time
/// (then EOF — the graceful stdio shutdown), asserts it exits 0, and
/// returns the responses by id.
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
            "server closed before answering `{}` — a fault escaped its isolation",
            request.to_json(),
        );
        let response = Response::parse(line.trim_end()).unwrap();
        by_id.insert(response.id, response.body);
    }
    drop(stdin);
    for line in stdout.lines() {
        let response = Response::parse(&line.unwrap()).unwrap();
        by_id.insert(response.id, response.body);
    }
    let out = child.wait_for_exit(Duration::from_secs(60));
    assert!(
        out.status.success(),
        "server must exit cleanly even under faults; stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    by_id
}

fn load_report(path: &Path) -> RunReport {
    let text = std::fs::read_to_string(path).unwrap();
    RunReport::from_json(&text).expect("chaos report still satisfies the schema")
}

fn error_kind(body: &ResponseBody) -> Option<ErrorKind> {
    match body {
        ResponseBody::Error { kind, .. } => Some(*kind),
        _ => None,
    }
}

/// Two injected request panics against one session: each answers a typed
/// `internal` error, the second quarantines the session (visible in
/// `list` and `health`, and refusing slices with the typed `quarantined`
/// error), a re-load resurrects the name with byte-identical answers,
/// and the report reconciles `server.panics` with `faults.request.panic`.
#[test]
fn request_panics_answer_typed_errors_and_quarantine_the_session() {
    let dir = work_dir("panic");
    let program = write_program(&dir);
    let report = dir.join("report.json");
    let program_str = program.to_str().unwrap();
    let args: Vec<String> = [
        "serve",
        program_str,
        "--input",
        "21",
        "--workers",
        "1",
        "--fault-plan",
        // The `request` point fires once per queued job; hits 3 and 4
        // are the two slices against session `s` below.
        "request:panic@3,request:panic@4",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::health(1),
            Request::load(2, "s", program_str, INPUT, None), // request hit 1
            Request::slice_in(3, "s", &Criterion::Output(0)), // hit 2: ok
            Request::slice_in(4, "s", &Criterion::Output(0)), // hit 3: panic
            Request::slice_in(5, "s", &Criterion::Output(0)), // hit 4: panic → quarantine
            Request::slice_in(6, "s", &Criterion::Output(0)), // hit 5: quarantined
            Request::list(7),
            Request::health(8),
            Request::load(9, "s", program_str, INPUT, None), // hit 6: quarantine exit
            Request::slice_in(10, "s", &Criterion::Output(0)), // hit 7: ok again
            Request::slice(11, &Criterion::Output(0)),       // hit 8: default trace untouched
        ],
    );

    match &by_id[&1] {
        ResponseBody::Health { status, panics, quarantined, .. } => {
            assert_eq!(status, "ok");
            assert_eq!((*panics, *quarantined), (0, 0));
        }
        other => panic!("pre-chaos health answered {other:?}"),
    }
    assert!(matches!(by_id[&2], ResponseBody::Loaded { .. }));
    let expected = expected_slice();
    match &by_id[&3] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected),
        other => panic!("healthy slice answered {other:?}"),
    }
    assert_eq!(error_kind(&by_id[&4]), Some(ErrorKind::Internal), "{:?}", by_id[&4]);
    assert_eq!(error_kind(&by_id[&5]), Some(ErrorKind::Internal), "{:?}", by_id[&5]);
    assert_eq!(error_kind(&by_id[&6]), Some(ErrorKind::Quarantined), "{:?}", by_id[&6]);
    match &by_id[&7] {
        ResponseBody::Sessions { sessions } => {
            assert_eq!(sessions.len(), 1);
            assert_eq!(sessions[0].name, "s");
            assert!(sessions[0].quarantined, "list must show the quarantined session");
        }
        other => panic!("list answered {other:?}"),
    }
    match &by_id[&8] {
        ResponseBody::Health { status, panics, quarantined, sessions, .. } => {
            assert_eq!(status, "degraded");
            assert_eq!(*panics, 2);
            assert_eq!(*quarantined, 1);
            assert_eq!(*sessions, 0, "the quarantined session is no longer resident");
        }
        other => panic!("mid-chaos health answered {other:?}"),
    }
    assert!(matches!(by_id[&9], ResponseBody::Loaded { .. }), "re-load exits quarantine");
    for id in [10, 11] {
        match &by_id[&id] {
            ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected, "id {id}"),
            other => panic!("post-recovery slice {id} answered {other:?}"),
        }
    }

    let parsed = load_report(&report);
    assert_eq!(parsed.counter_or_zero("server.panics"), 2);
    assert_eq!(
        parsed.counter_or_zero("faults.request.panic"),
        parsed.counter_or_zero("server.panics"),
        "every caught panic must be an injected one, and vice versa"
    );
    assert_eq!(parsed.counter_or_zero("server.sessions_quarantined"), 1);
    assert_eq!(parsed.counter_or_zero("server.retries"), 0);
    let validate = bin().args(["metrics-validate", report.to_str().unwrap()]).output().unwrap();
    assert!(validate.status.success(), "faults.* counters must satisfy the schema");
}

/// A panicking background build: the `loading` ack went out, the build
/// dies, and the name must neither wedge in `loading` (the guard
/// regression) nor serve — until a clean re-load lands it for real.
#[test]
fn build_panic_clears_loading_and_reload_recovers() {
    let dir = work_dir("build");
    let program = write_program(&dir);
    let report = dir.join("report.json");
    let program_str = program.to_str().unwrap();
    let args: Vec<String> = [
        "serve",
        program_str,
        "--input",
        "21",
        "--workers",
        "1",
        "--fault-plan",
        "build:panic@1",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    let by_id = run_stdio_script(
        &args,
        &[
            Request::load_async(1, "s", program_str, INPUT, None), // build 1: panics
            // Waits until the loading registration clears, then answers
            // from the resident table — a wedged registration would hang
            // here forever (caught by the harness deadline).
            Request { wait: true, ..Request::slice_in(2, "s", &Criterion::Output(0)) },
            Request::load(3, "s", program_str, INPUT, None), // build 2: clean
            Request::slice_in(4, "s", &Criterion::Output(0)),
            Request::health(5),
        ],
    );

    assert!(matches!(by_id[&1], ResponseBody::Loading { .. }));
    assert_eq!(
        error_kind(&by_id[&2]),
        Some(ErrorKind::UnknownSession),
        "a panicked build must surface as unknown_session, got {:?}",
        by_id[&2]
    );
    assert!(matches!(by_id[&3], ResponseBody::Loaded { .. }), "{:?}", by_id[&3]);
    match &by_id[&4] {
        ResponseBody::Slice { stmts, .. } => assert_eq!(stmts, &expected_slice()),
        other => panic!("slice after the rebuilt load answered {other:?}"),
    }
    match &by_id[&5] {
        ResponseBody::Health { status, panics, sessions, loading, .. } => {
            assert_eq!(status, "degraded", "a caught build panic degrades health");
            assert_eq!(*panics, 1);
            assert_eq!((*sessions, *loading), (1, 0));
        }
        other => panic!("health answered {other:?}"),
    }

    let parsed = load_report(&report);
    assert_eq!(parsed.counter_or_zero("server.panics"), 1);
    assert_eq!(parsed.counter_or_zero("faults.build.panic"), 1);
    assert_eq!(parsed.counter_or_zero("server.sessions_quarantined"), 0);
}

/// A loop-heavy program whose paged graph spans several spill blocks, so
/// slicing with a one-block cache genuinely reads from disk (the tiny
/// doubler resolves without ever touching the spill file).
const LOOPY: &str = "
    global int a[1];

    fn main() {
        int i;
        for (i = 0; i < 3000; i = i + 1) { a[0] = a[0] + i; }
        print a[0];
    }";

/// A transient paged-read failure (plus an injected dispatch delay) is
/// absorbed by bounded retry: the client sees only correct slices, and
/// the report shows the retry instead of an `io` error.
#[test]
fn transient_paged_read_error_is_retried_transparently() {
    let dir = work_dir("paged");
    let program = dir.join("loopy.minic");
    std::fs::write(&program, LOOPY).unwrap();
    let report = dir.join("report.json");
    let args: Vec<String> = [
        "serve",
        program.to_str().unwrap(),
        "--algo",
        "paged",
        "--resident-blocks",
        "1",
        "--no-shortcuts",
        "--workers",
        "1",
        "--no-cache",
        "--fault-plan",
        "paged_read:err@1,request:delay=20ms@1",
        "--metrics-json",
        report.to_str().unwrap(),
    ]
    .map(String::from)
    .to_vec();
    let requests: Vec<Request> =
        (1..=2).map(|id| Request::slice(id, &Criterion::Output(0))).collect();
    let by_id = run_stdio_script(&args, &requests);

    let session = Session::compile(LOOPY).unwrap();
    let trace = session.run(Vec::new());
    let opt = session.opt(&trace, &OptConfig::default());
    let slice = opt.slice(&Criterion::Output(0)).unwrap();
    let expected: Vec<u32> = slice.stmts.iter().map(|s| s.index() as u32).collect();
    for id in 1..=2 {
        match &by_id[&id] {
            ResponseBody::Slice { stmts, .. } => {
                assert_eq!(stmts, &expected, "slice {id} must survive the injected error")
            }
            other => panic!("slice {id} answered {other:?}"),
        }
    }

    let parsed = load_report(&report);
    assert_eq!(parsed.counter_or_zero("server.panics"), 0);
    assert!(
        parsed.counter_or_zero("server.retries") >= 1,
        "the injected read error must show up as a retry"
    );
    assert_eq!(
        parsed.counter_or_zero("faults.paged_read.err"),
        1,
        "the plan fired exactly its one-shot rule"
    );
    assert_eq!(parsed.counter_or_zero("faults.request.delay"), 1);
    assert_eq!(parsed.counter_or_zero("server.failed"), 0, "no fault reached a client");
}

/// `health` answers on TCP before the versioned handshake — a raw probe
/// needs no `hello` — while every other pre-handshake op is still gated.
#[test]
fn tcp_health_answers_before_the_handshake_gate() {
    let dir = work_dir("tcp");
    let program = write_program(&dir);
    let port_file = dir.join("port");
    let child = bin()
        .args([
            "serve",
            program.to_str().unwrap(),
            "--input",
            "21",
            "--tcp",
            "127.0.0.1:0",
            "--port-file",
            port_file.to_str().unwrap(),
        ])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn_server();

    let start = Instant::now();
    while !port_file.exists() {
        assert!(start.elapsed() < Duration::from_secs(30), "port file never appeared");
        std::thread::sleep(Duration::from_millis(20));
    }
    let addr = std::fs::read_to_string(&port_file).unwrap().trim().to_string();

    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |request: &Request| -> ResponseBody {
        writeln!(writer, "{}", request.to_json()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection died");
        Response::parse(line.trim_end()).unwrap().body
    };

    // First line on the wire is the probe, not a hello.
    match ask(&Request::health(1)) {
        ResponseBody::Health { status, .. } => assert_eq!(status, "ok"),
        other => panic!("pre-handshake health answered {other:?}"),
    }
    // The gate still stands for everything else.
    match ask(&Request::list(2)) {
        ResponseBody::Error { kind, .. } => assert_eq!(kind, ErrorKind::HandshakeRequired),
        other => panic!("pre-handshake list answered {other:?}"),
    }
    // That gated error closed the connection; a fresh one can handshake
    // and then ask for shutdown.
    let stream = std::net::TcpStream::connect(&addr).unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut ask = |request: &Request| -> ResponseBody {
        writeln!(writer, "{}", request.to_json()).unwrap();
        writer.flush().unwrap();
        let mut line = String::new();
        assert!(reader.read_line(&mut line).unwrap() > 0, "connection died");
        Response::parse(line.trim_end()).unwrap().body
    };
    assert!(matches!(ask(&Request::hello(3, 1)), ResponseBody::Hello { .. }));
    assert!(matches!(ask(&Request::health(4)), ResponseBody::Health { .. }));
    assert!(matches!(ask(&Request::shutdown(5)), ResponseBody::ShutdownAck));

    let out = child.wait_for_exit(Duration::from_secs(60));
    assert!(out.status.success(), "stderr: {}", String::from_utf8_lossy(&out.stderr));
}
