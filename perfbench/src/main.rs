//! `perfbench` — end-to-end and per-layer benchmark of `dynslice serve`.
//!
//! Runs the release `dynslice` binary as a separate process over TCP on
//! 127.0.0.1 and drives it from this one process with closed-loop
//! clients, checking every slice it answers against an in-process
//! `OptSlicer` oracle. See `README.md` beside this crate.
//!
//! ```text
//! perfbench --server PATH --workload hot-cache|deep-slice
//!           --seed N --seconds S --trace 0|1 [--tiny] [--corrupt-oracle]
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! (`# detail ...`) carries every number the run measured. The exit code
//! is 0 for a correct run, 1 when any answer was wrong or any operation
//! failed, and 2 when the run could not be made at all.

mod common;
mod layers;
mod phases;
mod server;
mod spans;
mod stats;
mod wire;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;

use common::{Ctx, Report};
use spans::Spans;

/// End-to-end metrics, reported by every untraced run (`BENCHMARK.json`).
const END_TO_END: [(&str, &str); 7] = [
    ("slice_p50_ms", "ms"),
    ("oneshot_p50_ms", "ms"),
    ("paged_slice_p50_ms", "ms"),
    ("load_cold_p50_ms", "ms"),
    ("load_restore_p50_ms", "ms"),
    ("server_peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every traced run (`BENCHMARK.json`).
const PER_LAYER: [(&str, &str); 40] = [
    ("protocol.encode_request_us", "us"),
    ("protocol.parse_request_us", "us"),
    ("protocol.encode_response_us", "us"),
    ("protocol.parse_response_us", "us"),
    ("net.bytes_per_reply", "bytes"),
    ("server.service_p50_us", "us"),
    ("server.overhead_p50_us", "us"),
    ("server.hello_p50_ms", "ms"),
    ("server.accept_wait_p50_ms", "ms"),
    ("server.queue_peak", "count"),
    ("server.in_flight_peak", "count"),
    ("server.idle_cpu_pct", "%"),
    ("server.qps", "1/s"),
    ("server.slice_p90_ms", "ms"),
    ("sessions.cache_hit_ratio", "1"),
    ("sessions.evicted", "count"),
    ("sessions.resident_mb", "MB"),
    ("sessions.admit_ms_p50", "ms"),
    ("slicing.opt_p50_ms", "ms"),
    ("slicing.first_touch_p50_ms", "ms"),
    ("slicing.instances_visited", "count"),
    ("slicing.shortcut_hits", "count"),
    ("slicing.shortcuts_materialized", "count"),
    ("slicing.paged_p50_ms", "ms"),
    ("graph.paged_misses_per_slice", "count"),
    ("graph.paged_hit_rate", "1"),
    ("graph.paged_bytes_read_per_slice", "bytes"),
    ("graph.paged_over_opt", "1"),
    ("graph.build_ms_p50", "ms"),
    ("graph.snapshot_encode_ms", "ms"),
    ("graph.snapshot_decode_ms", "ms"),
    ("graph.snapshot_kb", "KB"),
    ("graph.compact_kb", "KB"),
    ("runtime.trace_ms_p50", "ms"),
    ("runtime.stmts_executed", "count"),
    ("frontend.compile_ms_p50", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("host.steal_pct", "%"),
    ("failed_share", "1"),
    ("server.cpu_ms_per_op", "ms"),
];

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tiny: bool,
    corrupt_oracle: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut server = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut tiny = false;
    let mut corrupt_oracle = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--server" => server = Some(PathBuf::from(value()?)),
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value()?.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => trace = value()? == "1",
            "--tiny" => tiny = true,
            "--corrupt-oracle" => corrupt_oracle = true,
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(Args {
        server: server.ok_or("--server is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace,
        tiny,
        corrupt_oracle,
    })
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let dir = PathBuf::from(".perfbench_work").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("perfbench: cannot create {}: {e}", dir.display());
        return ExitCode::from(2);
    }
    let ctx = Ctx {
        server_bin: args.server,
        dir: dir.clone(),
        seed: args.seed,
        seconds: args.seconds,
        tiny: args.tiny,
        corrupt_oracle: args.corrupt_oracle,
        spans: Spans::new(args.trace),
    };
    let mut report = Report::default();
    let outcome = workloads::run(&ctx, &args.workload, &mut report);
    if args.trace {
        let out = PathBuf::from(".perfbench_out");
        let path = out.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::create_dir_all(&out).and_then(|_| ctx.spans.write_jsonl(&path)) {
            eprintln!("perfbench: cannot write spans to {}: {e}", path.display());
        }
    }
    common::remove_dir(&dir);
    std::fs::remove_dir(".perfbench_work").ok();
    if let Err(e) = outcome {
        eprintln!("perfbench: {} run failed: {e}", args.workload);
        return ExitCode::from(2);
    }

    report.set("failed_share", report.failed as f64 / report.attempted.max(1) as f64, "1");
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in wanted {
        match report.get(name) {
            Some(v) if v.is_finite() => fields.push(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_num(v)
            )),
            other => {
                eprintln!("perfbench: metric {name} was not measured ({other:?})");
                return ExitCode::from(2);
            }
        }
    }
    let all: Vec<String> = report
        .metrics
        .iter()
        .map(|(n, v, u)| format!("\"{n}\": [{}, \"{u}\"]", json_num(*v)))
        .chain(report.details.iter().map(|(n, v)| format!("\"{n}\": {}", json_num(*v))))
        .collect();
    println!("# detail {{\"workload\": \"{}\", \"seed\": {}, {}}}", args.workload, args.seed, all.join(", "));
    for p in &report.problems {
        eprintln!("perfbench: {p}");
    }
    let correct = report.failed == 0;
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
