//! End-to-end tests of the `dynslice` binary: exit codes and the
//! `--metrics-json` run reports every subcommand emits.

use std::path::PathBuf;
use std::process::{Command, Output};

use dynslice::RunReport;

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_dynslice"))
}

fn work_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynslice-cli-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn write_program(name: &str, src: &str) -> PathBuf {
    let path = work_dir().join(name);
    std::fs::write(&path, src).unwrap();
    path
}

const PROGRAM: &str = "global int a[2];
fn main() { a[0] = input(); a[1] = a[0] * 2; print a[1]; }
";

fn run_ok(args: &[&str]) -> Output {
    let out = bin().args(args).output().expect("spawn dynslice");
    assert!(
        out.status.success(),
        "expected success for {args:?}\nstdout: {}\nstderr: {}",
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    out
}

fn load_report(path: &PathBuf) -> RunReport {
    let text = std::fs::read_to_string(path).unwrap();
    RunReport::from_json(&text).expect("emitted report satisfies the schema")
}

#[test]
fn every_subcommand_emits_a_valid_metrics_report() {
    let program = write_program("every.minic", PROGRAM);
    let prog = program.to_str().unwrap();
    let cases: &[(&[&str], &str)] = &[
        (&["run", prog, "--input", "4"], "trace"),
        (&["slice", prog, "--output", "0", "--algo", "opt", "--input", "4"], "opt"),
        (&["slice", prog, "--output", "0", "--algo", "fp", "--input", "4"], "fp"),
        (&["slice", prog, "--output", "0", "--algo", "lp", "--input", "4"], "lp"),
        (&["slice", prog, "--output", "0", "--algo", "paged", "--input", "4"], "paged"),
        (&["slice-batch", prog, "--workers", "2", "--input", "4"], "batch-opt"),
        (
            &["slice-batch", prog, "--paged", "--resident-blocks", "2", "--input", "4"],
            "batch-paged",
        ),
        (&["report", prog, "--input", "4"], "report"),
        (&["dot", prog, "--output", "0", "--input", "4"], "dot"),
    ];
    for (i, (args, algorithm)) in cases.iter().enumerate() {
        let json = work_dir().join(format!("report-{i}.json"));
        let json_str = json.to_str().unwrap().to_string();
        let mut full: Vec<&str> = args.to_vec();
        full.extend(["--metrics-json", &json_str]);
        run_ok(&full);
        let report = load_report(&json);
        assert_eq!(&report.algorithm, algorithm, "args: {args:?}");
        assert_eq!(report.config.get("cmd"), Some(&args[0].to_string()));
        assert!(report.counter_or_zero("trace.stmts_executed") > 0, "{args:?}");
        assert!(
            report.phases_ms.contains_key("trace_capture"),
            "every run times trace capture: {args:?}"
        );
        // The schema validator is also reachable from the CLI itself.
        run_ok(&["metrics-validate", &json_str]);
    }
}

/// Differential check through the CLI: FP, OPT, LP, and the paged hybrid
/// must report the same `slice.statements` for the same criterion, and
/// each report must carry its algorithm-specific counters.
#[test]
fn slice_reports_agree_across_algorithms_and_carry_their_counters() {
    let program = write_program("algos.minic", PROGRAM);
    let prog = program.to_str().unwrap();
    let mut sizes = Vec::new();
    for (algo, key) in [
        ("fp", "graph.bytes"),
        ("opt", "opt.instances_visited"),
        ("lp", "lp.records_scanned"),
        ("paged", "paged.cache_misses"),
    ] {
        let json = work_dir().join(format!("algo-{algo}.json"));
        let json_str = json.to_str().unwrap().to_string();
        run_ok(&[
            "slice", prog, "--output", "0", "--algo", algo, "--input", "4", "--metrics-json",
            &json_str,
        ]);
        let report = load_report(&json);
        assert!(
            report.counters.contains_key(key),
            "{algo} report should carry `{key}`: {:?}",
            report.counters.keys().collect::<Vec<_>>()
        );
        sizes.push((algo, report.counter_or_zero("slice.statements")));
        // LP runs that complete must not be flagged truncated.
        if algo == "lp" {
            assert_eq!(report.counter_or_zero("lp.truncated"), 0);
        }
    }
    assert!(sizes[0].1 > 0, "slice must be non-empty: {sizes:?}");
    assert!(
        sizes.iter().all(|(_, n)| *n == sizes[0].1),
        "all four slicers must agree on slice size: {sizes:?}"
    );
}

#[test]
fn batch_report_counts_queries_and_failures() {
    let program = write_program("batch.minic", PROGRAM);
    let json = work_dir().join("batch-counters.json");
    let json_str = json.to_str().unwrap().to_string();
    run_ok(&[
        "slice-batch",
        program.to_str().unwrap(),
        "--workers",
        "2",
        "--repeat",
        "3",
        "--input",
        "4",
        "--metrics-json",
        &json_str,
    ]);
    let report = load_report(&json);
    assert!(report.counter_or_zero("batch.queries") >= 3);
    assert_eq!(report.counter_or_zero("batch.failed_queries"), 0);
    assert_eq!(report.counter_or_zero("batch.workers"), 2);
    assert!(report.phases_ms.contains_key("batch"));
}

/// Snapshot round trip through the CLI: `snapshot` persists the graph,
/// `slice --from-snapshot` answers byte-identically to a trace-built
/// slice (for OPT and the paged hybrid), and corrupt or misused
/// snapshots fail with the documented exit codes.
#[test]
fn snapshot_cli_round_trip_and_corruption() {
    let program = write_program("snap.minic", PROGRAM);
    let prog = program.to_str().unwrap();
    let dsnap = work_dir().join("snap.dsnap");
    let dsnap_str = dsnap.to_str().unwrap().to_string();
    let json = work_dir().join("snap-write.json");
    let json_str = json.to_str().unwrap().to_string();
    run_ok(&["snapshot", prog, "--input", "4", "-o", &dsnap_str, "--metrics-json", &json_str]);
    let report = load_report(&json);
    assert_eq!(report.algorithm, "snapshot");
    assert!(report.counter_or_zero("snapshot.write_bytes") > 0);
    assert!(report.phases_ms.contains_key("snapshot_io"));

    let direct = run_ok(&["slice", prog, "--output", "0", "--input", "4"]);
    let json2 = work_dir().join("snap-read.json");
    let json2_str = json2.to_str().unwrap().to_string();
    let restored = run_ok(&[
        "slice", &dsnap_str, "--from-snapshot", "--output", "0", "--metrics-json", &json2_str,
    ]);
    assert_eq!(
        direct.stdout, restored.stdout,
        "snapshot-restored slice output is byte-identical"
    );
    let report = load_report(&json2);
    assert!(report.counter_or_zero("snapshot.read_bytes") > 0);
    let paged = run_ok(&["slice", &dsnap_str, "--from-snapshot", "--output", "0", "--algo", "paged"]);
    assert_eq!(direct.stdout, paged.stdout, "paged restore agrees");

    // A flipped payload byte is a typed I/O failure (exit 5), not a
    // panic or a silently wrong slice.
    let mut bytes = std::fs::read(&dsnap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xff;
    let bad = work_dir().join("bad.dsnap");
    std::fs::write(&bad, &bytes).unwrap();
    let out = bin()
        .args(["slice", bad.to_str().unwrap(), "--from-snapshot", "--output", "0"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(5), "corrupt snapshot exits 5");

    // Usage errors: `snapshot` without -o, and a backend that cannot
    // restore from a graph.
    let out = bin().args(["snapshot", prog, "--input", "4"]).output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    let out = bin()
        .args(["slice", &dsnap_str, "--from-snapshot", "--output", "0", "--algo", "lp"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
}

#[test]
fn metrics_validate_rejects_garbage() {
    let bad = work_dir().join("bad.json");
    std::fs::write(&bad, "{\"schema_version\": 99}").unwrap();
    let out = bin().args(["metrics-validate", bad.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "invalid schema must exit nonzero");

    let missing = work_dir().join("does-not-exist.json");
    let out = bin().args(["metrics-validate", missing.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success(), "missing file must exit nonzero");
}

#[test]
fn failing_runs_exit_nonzero() {
    let program = write_program("fail.minic", PROGRAM);
    let prog = program.to_str().unwrap();
    // Criterion that never executed.
    let out = bin().args(["slice", prog, "--output", "7", "--input", "4"]).output().unwrap();
    assert!(!out.status.success());
    // Unknown flag.
    let out = bin().args(["slice", prog, "--bogus"]).output().unwrap();
    assert!(!out.status.success());
    // Source that does not compile.
    let broken = write_program("broken.minic", "fn main( {");
    let out = bin().args(["run", broken.to_str().unwrap()]).output().unwrap();
    assert!(!out.status.success());
}

/// A zero page budget is a usage error (exit 2) on every paged entry
/// point, not a budget of one page.
#[test]
fn zero_resident_budget_is_a_usage_error() {
    let program = write_program("zero-budget.minic", PROGRAM);
    let prog = program.to_str().unwrap();
    for args in [
        &["slice", prog, "--output", "0", "--algo", "paged", "--resident-blocks", "0"][..],
        &["slice-batch", prog, "--paged", "--resident-blocks", "0"][..],
    ] {
        let out = bin().args(args).output().unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stderr.contains("--resident-blocks"), "{args:?}: {stderr}");
    }
}
