//! `dynslice` — command-line dynamic slicer for MiniC programs.
//!
//! ```text
//! dynslice run         <file> [--input 1,2,3]
//! dynslice slice       <file> (--output K | --cell INST:OFF)
//!                      [--algo fp|opt|lp|forward|paged] [--input 1,2,3]
//!                      [--no-shortcuts] [--resident-blocks N] [--from-snapshot]
//! dynslice slice-batch <file> [--workers N] [--queries N] [--repeat R]
//!                      [--no-cache] [--no-shortcuts] [--input 1,2,3]
//!                      [--paged] [--resident-blocks N] [--from-snapshot]
//! dynslice snapshot    <file> -o FILE.dsnap [--input 1,2,3]  # build once, persist graph
//! dynslice serve       <file> [--algo fp|opt|lp|forward|paged] [--paged]
//!                      [--socket PATH] [--tcp HOST:PORT] [--port-file PATH]
//!                      [--max-connections N] [--idle-timeout-ms N]
//!                      [--max-line-bytes N]
//!                      [--workers N] [--timeout-ms N]
//!                      [--queue-depth N] [--cache-capacity N] [--no-cache]
//!                      [--max-sessions N] [--memory-budget-mb MB] [--loaders N]
//!                      [--preload [name=]file[@i1;i2;...],...]
//!                      [--snapshot-dir DIR]
//! dynslice report      <file> [--input 1,2,3]
//! dynslice dot         <file> [--input 1,2,3] [--dynamic]  # graph to stdout
//! dynslice dot         <file> --output K | --cell I:O      # slice rendering
//! dynslice metrics-validate <report.json>   # schema-check a run report
//! ```
//!
//! Every subcommand accepts `--metrics-json PATH`: the run then emits a
//! machine-readable [`RunReport`] (algorithm, config, per-phase wall
//! times, all counters, peak resident bytes) in the unified observability
//! schema — the same schema the bench harnesses write to `BENCH_*.json`.
//!
//! `slice` and `serve` share one backend-construction path
//! ([`Session::build_slicer`]) behind the [`Slicer`] trait, so every
//! algorithm — including `--paged`, the §4.2 OPT+LP hybrid with at most
//! `--resident-blocks` 4 KiB label pages resident (default 128 = 512 KiB)
//! — is reachable from both.
//!
//! `snapshot` persists the compacted graph (with the source, input, and
//! build config) to a checksummed `.dsnap` file; `slice`/`slice-batch`
//! with `--from-snapshot` treat `<file>` as such a snapshot and restore
//! the graph instead of re-tracing — O(graph size), not O(trace length).
//! `serve --snapshot-dir DIR` keys a snapshot cache by the
//! (source, input, config) digest: `load` requests that hit it skip the
//! trace replay, and cold builds populate it.
//!
//! `serve` keeps the backend alive and answers newline-delimited JSON
//! slice requests on stdin/stdout, on a Unix socket with `--socket`, or
//! over TCP with `--tcp HOST:PORT` — both listeners may run at once (see
//! `dynslice::protocol` for the wire format). TCP clients must open with
//! the versioned `{"op":"hello","proto":1}` handshake; Unix and stdio
//! keep the historical handshake-free wire format. `--port-file` writes
//! the bound TCP address (useful with port `0`), `--max-connections`
//! bounces surplus clients with a typed `busy` error, and
//! `--idle-timeout-ms` reaps silent socket connections. It exits on
//! stdin EOF, SIGTERM, or a `{"op":"shutdown"}` request, draining
//! accepted work and sending TCP clients a final `shutting_down` error.
//! Beyond the launch trace, clients may `load`/`unload` further named
//! traces at runtime (and `--preload` admits some at startup); resident
//! sessions are capped by `--max-sessions` and by the optional
//! `--memory-budget-mb`, with idle sessions evicted LRU-first (see
//! `dynslice::sessions`).
//!
//! Exit codes: `0` success; `2` usage errors; `3` the slice criterion
//! never executed; `4` the slice was truncated by the LP pass budget
//! (the partial slice is still printed); `5` backend I/O failure; `1`
//! everything else — including a batch that dropped queries, so a lossy
//! `slice-batch` never exits 0 and CI cannot greenlight it. The mapping
//! is owned by [`ErrorKind::exit_code`], the same taxonomy the serve
//! protocol reports on the wire.

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use dynslice::criteria::{parse_cell, parse_output_index};
use dynslice::protocol::ErrorKind;
use dynslice::{
    phases, pick_cells, serve, Algo, BatchConfig, BatchResult, BatchSliceEngine, Cell, Criterion,
    OwnedSlicer, RecordMetrics, Registry, RunReport, ServeConfig, Session, SessionManager,
    SessionSpec, SliceError, Slicer, SlicerConfig, StmtId, Transport,
};

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dynslice: {}", e.message);
            ExitCode::from(e.code)
        }
    }
}

/// A failure plus the exit code that classifies it (see the module docs).
struct CliError {
    code: u8,
    message: String,
}

impl CliError {
    fn usage(message: impl Into<String>) -> Self {
        CliError { code: ErrorKind::BadRequest.exit_code(), message: message.into() }
    }
}

impl From<String> for CliError {
    fn from(message: String) -> Self {
        CliError { code: 1, message }
    }
}

impl From<SliceError> for CliError {
    fn from(e: SliceError) -> Self {
        CliError { code: ErrorKind::from_slice_error(&e).exit_code(), message: e.to_string() }
    }
}

impl From<std::io::Error> for CliError {
    fn from(e: std::io::Error) -> Self {
        CliError { code: ErrorKind::Io.exit_code(), message: e.to_string() }
    }
}

struct Args {
    cmd: String,
    file: String,
    input: Vec<i64>,
    output: Option<usize>,
    cell: Option<Cell>,
    algo: String,
    shortcuts: bool,
    dynamic_edges: bool,
    workers: Option<usize>,
    queries: usize,
    repeat: usize,
    cache: bool,
    paged: bool,
    resident_blocks: usize,
    loaders: usize,
    socket: Option<String>,
    tcp: Option<String>,
    port_file: Option<String>,
    max_connections: usize,
    idle_timeout_ms: Option<u64>,
    max_line_bytes: usize,
    timeout_ms: Option<u64>,
    queue_depth: usize,
    cache_capacity: usize,
    max_sessions: usize,
    memory_budget_mb: Option<f64>,
    preload: Vec<String>,
    metrics_json: Option<String>,
    from_snapshot: bool,
    snapshot_out: Option<String>,
    snapshot_dir: Option<String>,
    fault_plan: Option<String>,
}

impl Args {
    /// The launch configuration recorded in a metrics report.
    fn config_map(&self) -> BTreeMap<String, String> {
        let mut m = BTreeMap::new();
        m.insert("cmd".into(), self.cmd.clone());
        m.insert("file".into(), self.file.clone());
        m.insert(
            "input".into(),
            self.input.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","),
        );
        m.insert("algo".into(), self.algo.clone());
        m.insert("shortcuts".into(), self.shortcuts.to_string());
        m.insert("cache".into(), self.cache.to_string());
        m.insert("paged".into(), self.paged.to_string());
        m.insert("resident_blocks".into(), self.resident_blocks.to_string());
        m.insert("queries".into(), self.queries.to_string());
        m.insert("repeat".into(), self.repeat.to_string());
        if self.from_snapshot {
            m.insert("from_snapshot".into(), "true".into());
        }
        if let Some(o) = &self.snapshot_out {
            m.insert("snapshot_out".into(), o.clone());
        }
        if let Some(d) = &self.snapshot_dir {
            m.insert("snapshot_dir".into(), d.clone());
        }
        if let Some(w) = self.workers {
            m.insert("workers".into(), w.to_string());
        }
        if self.cmd == "serve" {
            m.insert(
                "socket".into(),
                self.socket.clone().unwrap_or_else(|| {
                    if self.tcp.is_some() { "none".into() } else { "stdio".into() }
                }),
            );
            if let Some(addr) = &self.tcp {
                m.insert("tcp".into(), addr.clone());
                m.insert("max_connections".into(), self.max_connections.to_string());
            }
            if let Some(t) = self.idle_timeout_ms {
                m.insert("idle_timeout_ms".into(), t.to_string());
            }
            m.insert("max_line_bytes".into(), self.max_line_bytes.to_string());
            m.insert("queue_depth".into(), self.queue_depth.to_string());
            m.insert("cache_capacity".into(), self.cache_capacity.to_string());
            m.insert("loaders".into(), self.loaders.to_string());
            m.insert("max_sessions".into(), self.max_sessions.to_string());
            if let Some(mb) = self.memory_budget_mb {
                m.insert("memory_budget_mb".into(), mb.to_string());
            }
            if !self.preload.is_empty() {
                m.insert("preload".into(), self.preload.join(","));
            }
            if let Some(t) = self.timeout_ms {
                m.insert("timeout_ms".into(), t.to_string());
            }
            if let Some(fp) = &self.fault_plan {
                m.insert("fault_plan".into(), fp.clone());
            }
        }
        m
    }

    /// The backend `slice`/`serve`/`slice-batch` should build.
    fn algo(&self) -> Result<Algo, CliError> {
        if self.paged {
            return Ok(Algo::Paged);
        }
        self.algo.parse().map_err(CliError::usage)
    }

    /// Shared backend knobs derived from the flags.
    fn slicer_config(&self) -> SlicerConfig {
        SlicerConfig {
            shortcuts: self.shortcuts,
            scratch_dir: std::env::temp_dir().join("dynslice-cli"),
            resident_blocks: self.resident_blocks,
            ..SlicerConfig::default()
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let cmd = args.next().ok_or_else(usage)?;
    let file = args.next().ok_or_else(usage)?;
    let mut out = Args {
        cmd,
        file,
        input: Vec::new(),
        output: None,
        cell: None,
        algo: "opt".into(),
        shortcuts: true,
        dynamic_edges: false,
        workers: None,
        queries: 25,
        repeat: 1,
        cache: true,
        paged: false,
        resident_blocks: 128,
        loaders: 1,
        socket: None,
        tcp: None,
        port_file: None,
        max_connections: ServeConfig::default().max_connections,
        idle_timeout_ms: None,
        max_line_bytes: ServeConfig::default().max_line_bytes,
        timeout_ms: None,
        queue_depth: 64,
        cache_capacity: 128,
        max_sessions: 8,
        memory_budget_mb: None,
        preload: Vec::new(),
        metrics_json: None,
        from_snapshot: false,
        snapshot_out: None,
        snapshot_dir: None,
        // The flag wins over the environment so a wrapper script's
        // ambient plan can be overridden per run.
        fault_plan: std::env::var("DYNSLICE_FAULTS").ok(),
    };
    while let Some(a) = args.next() {
        match a.as_str() {
            "--input" => {
                let v = args.next().ok_or("--input needs a value")?;
                out.input = v
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(|s| s.trim().parse().map_err(|_| format!("bad input `{s}`")))
                    .collect::<Result<_, _>>()?;
            }
            "--output" => {
                let v = args.next().ok_or("--output needs a value")?;
                out.output = Some(parse_output_index(&v)?);
            }
            "--cell" => {
                let v = args.next().ok_or("--cell needs INST:OFF")?;
                out.cell = Some(parse_cell(&v)?);
            }
            "--algo" => out.algo = args.next().ok_or("--algo needs fp|opt|lp|forward|paged")?,
            "--no-shortcuts" => out.shortcuts = false,
            "--dynamic" => out.dynamic_edges = true,
            "--workers" => {
                let v = args.next().ok_or("--workers needs a count")?;
                out.workers = Some(v.parse().map_err(|_| format!("bad worker count `{v}`"))?);
            }
            "--queries" => {
                let v = args.next().ok_or("--queries needs a count")?;
                out.queries = v.parse().map_err(|_| format!("bad query count `{v}`"))?;
            }
            "--repeat" => {
                let v = args.next().ok_or("--repeat needs a count")?;
                out.repeat = v.parse().map_err(|_| format!("bad repeat count `{v}`"))?;
            }
            "--no-cache" => out.cache = false,
            "--paged" => out.paged = true,
            "--resident-blocks" => {
                let v = args.next().ok_or("--resident-blocks needs a count")?;
                out.resident_blocks = match v.parse() {
                    Ok(0) => return Err("--resident-blocks must be at least 1 page".into()),
                    Ok(n) => n,
                    Err(_) => return Err(format!("bad block count `{v}`")),
                };
            }
            "--loaders" => {
                let v = args.next().ok_or("--loaders needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad loader count `{v}`"))?;
                out.loaders = n.max(1);
            }
            "--socket" => {
                out.socket = Some(args.next().ok_or("--socket needs a path")?);
            }
            "--tcp" => {
                out.tcp = Some(args.next().ok_or("--tcp needs HOST:PORT")?);
            }
            "--port-file" => {
                out.port_file = Some(args.next().ok_or("--port-file needs a path")?);
            }
            "--max-connections" => {
                let v = args.next().ok_or("--max-connections needs a count")?;
                out.max_connections =
                    v.parse().map_err(|_| format!("bad connection count `{v}`"))?;
            }
            "--idle-timeout-ms" => {
                let v = args.next().ok_or("--idle-timeout-ms needs a count")?;
                out.idle_timeout_ms =
                    Some(v.parse().map_err(|_| format!("bad idle timeout `{v}`"))?);
            }
            "--max-line-bytes" => {
                let v = args.next().ok_or("--max-line-bytes needs a count")?;
                let n: usize = v.parse().map_err(|_| format!("bad line cap `{v}`"))?;
                if n == 0 {
                    return Err(format!("bad line cap `{v}` (must be positive)"));
                }
                out.max_line_bytes = n;
            }
            "--timeout-ms" => {
                let v = args.next().ok_or("--timeout-ms needs a count")?;
                out.timeout_ms = Some(v.parse().map_err(|_| format!("bad timeout `{v}`"))?);
            }
            "--queue-depth" => {
                let v = args.next().ok_or("--queue-depth needs a count")?;
                out.queue_depth = v.parse().map_err(|_| format!("bad queue depth `{v}`"))?;
            }
            "--cache-capacity" => {
                let v = args.next().ok_or("--cache-capacity needs a count")?;
                out.cache_capacity =
                    v.parse().map_err(|_| format!("bad cache capacity `{v}`"))?;
            }
            "--max-sessions" => {
                let v = args.next().ok_or("--max-sessions needs a count")?;
                out.max_sessions =
                    v.parse().map_err(|_| format!("bad session count `{v}`"))?;
            }
            "--memory-budget-mb" => {
                let v = args.next().ok_or("--memory-budget-mb needs a value")?;
                let mb: f64 =
                    v.parse().map_err(|_| format!("bad memory budget `{v}`"))?;
                if !mb.is_finite() || mb <= 0.0 {
                    return Err(format!("bad memory budget `{v}` (positive MB expected)"));
                }
                out.memory_budget_mb = Some(mb);
            }
            "--preload" => {
                let v = args.next().ok_or("--preload needs [name=]file[@i1;i2;...],...")?;
                out.preload.extend(v.split(',').filter(|s| !s.is_empty()).map(str::to_string));
            }
            "--metrics-json" => {
                out.metrics_json = Some(args.next().ok_or("--metrics-json needs a path")?);
            }
            "--from-snapshot" => out.from_snapshot = true,
            "-o" | "--out" => {
                out.snapshot_out = Some(args.next().ok_or("-o needs an output path")?);
            }
            "--snapshot-dir" => {
                out.snapshot_dir = Some(args.next().ok_or("--snapshot-dir needs a directory")?);
            }
            "--fault-plan" => {
                out.fault_plan =
                    Some(args.next().ok_or("--fault-plan needs point:action[@trigger],...")?);
            }
            other => return Err(format!("unknown flag `{other}`\n{}", usage())),
        }
    }
    Ok(out)
}

fn usage() -> String {
    "usage: dynslice <run|slice|slice-batch|snapshot|serve|report|dot|metrics-validate> \
     <file.minic> \
     [--input 1,2,3] [--output K | --cell INST:OFF] [--algo fp|opt|lp|forward|paged] \
     [--no-shortcuts] [--workers N] [--queries N] [--repeat R] \
     [--no-cache] [--paged] [--resident-blocks N] [--socket PATH] [--tcp HOST:PORT] \
     [--port-file PATH] [--max-connections N] [--idle-timeout-ms N] [--max-line-bytes N] \
     [--timeout-ms N] \
     [--queue-depth N] [--cache-capacity N] [--loaders N] [--max-sessions N] \
     [--memory-budget-mb MB] [--preload [name=]file[@i1;i2;...],...] [--metrics-json PATH] \
     [-o FILE.dsnap] [--from-snapshot] [--snapshot-dir DIR] \
     [--fault-plan point:action[@trigger],...]"
        .to_string()
}

fn print_slice(session: &Session, stmts: &std::collections::BTreeSet<StmtId>) {
    println!("slice: {} statements", stmts.len());
    for s in stmts {
        let loc = session.program.stmt_loc(*s);
        println!("  {s}  fn {} {} {:?}", session.program.func(loc.func).name, loc.block, loc.pos);
    }
}

/// Fig. 18-style workload: N distinct memory criteria, evenly spaced over
/// the cells the run defined, plus every output, cycled `--repeat` times.
fn build_batch(
    graph: &dynslice::CompactGraph,
    num_outputs: usize,
    a: &Args,
) -> Result<Vec<Criterion>, String> {
    let mut unique: Vec<Criterion> = pick_cells(graph.last_def.keys().copied(), a.queries)
        .into_iter()
        .map(Criterion::CellLastDef)
        .collect();
    for k in 0..num_outputs {
        unique.push(Criterion::Output(k));
    }
    if unique.is_empty() {
        return Err("program defined no cells and printed nothing".into());
    }
    let n = unique.len() * a.repeat.max(1);
    Ok(unique.into_iter().cycle().take(n).collect())
}

/// Runs one batch over any [`Slicer`], prints the per-worker report, and
/// registers the batch counters. Returns the result so the caller can turn
/// dropped queries into a nonzero exit *after* the metrics report is
/// written.
fn run_batch<S: Slicer + ?Sized>(
    engine: &BatchSliceEngine<'_, S>,
    batch: &[Criterion],
    shortcuts: bool,
    reg: &Registry,
) -> BatchResult {
    let config = engine.config().clone();
    let distinct = batch.iter().collect::<std::collections::HashSet<_>>().len();
    let result = reg.time_phase(phases::BATCH, || engine.run(batch));
    let stats = &result.stats;
    stats.record_metrics(reg);
    reg.counter_set("batch.distinct_criteria", distinct as u64);
    let sizes: Vec<usize> =
        result.slices.iter().filter_map(|s| s.as_ref().map(|s| s.len())).collect();
    println!(
        "batch: {} queries ({} distinct) over {} workers (backend {}, cache {}, shortcuts {})",
        batch.len(),
        distinct,
        config.workers,
        engine.slicer().name(),
        if config.cache { "on" } else { "off" },
        if shortcuts { "on" } else { "off" },
    );
    println!("  worker |  queries |     hits | shortcuts |  instances |     busy");
    for (i, w) in stats.workers.iter().enumerate() {
        println!(
            "  {i:>6} | {:>8} | {:>8} | {:>9} | {:>10} | {:>7.2}ms",
            w.queries,
            w.cache_hits,
            w.shortcuts_materialized,
            w.instances_visited,
            w.busy.as_secs_f64() * 1e3,
        );
    }
    if !sizes.is_empty() {
        println!(
            "  slice sizes: min {} / avg {:.1} / max {} statements",
            sizes.iter().min().unwrap(),
            sizes.iter().sum::<usize>() as f64 / sizes.len() as f64,
            sizes.iter().max().unwrap(),
        );
    }
    println!(
        "  wall {:.2}ms, {:.0} queries/s",
        stats.wall.as_secs_f64() * 1e3,
        stats.throughput(),
    );
    result
}

/// Writes the run report when `--metrics-json` was passed.
fn emit_metrics(a: &Args, reg: &Registry, algorithm: &str) -> Result<(), CliError> {
    emit_metrics_with_sessions(a, reg, algorithm, BTreeMap::new())
}

/// Like [`emit_metrics`], folding per-session sub-reports (the serve
/// path's session manager) into the report first.
fn emit_metrics_with_sessions(
    a: &Args,
    reg: &Registry,
    algorithm: &str,
    sessions: BTreeMap<String, dynslice::SessionReport>,
) -> Result<(), CliError> {
    let Some(path) = &a.metrics_json else { return Ok(()) };
    let mut report = reg.report(algorithm, a.config_map());
    report.sessions = sessions;
    report.write_to(path).map_err(|e| CliError::from(format!("{path}: {e}")))?;
    eprintln!("[metrics report written to {path}]");
    Ok(())
}

/// Prints the per-backend trailer a one-shot `slice` ends with.
fn print_backend_trailer(slicer: &dynslice::AnySlicer<'_>, a: &Args) {
    if let dynslice::AnySlicer::Paged(p) = slicer {
        let st = p.stats();
        eprintln!(
            "[paged: {} hits, {} misses ({:.1}% hit rate), {} KB read, {} resident pages]",
            st.hits,
            st.misses,
            st.hit_rate() * 100.0,
            st.bytes_read / 1024,
            a.resident_blocks,
        );
    }
}

/// Answers one `slice` query over an already-built backend and prints
/// the result — shared by the trace-built and snapshot-restored paths.
fn run_slice(
    a: &Args,
    session: &Session,
    slicer: &dynslice::AnySlicer<'_>,
    algo: Algo,
    reg: &Registry,
) -> Result<(), CliError> {
    let criterion = match (a.output, a.cell) {
        (Some(k), None) => Criterion::Output(k),
        (None, Some(c)) => Criterion::CellLastDef(c),
        _ => return Err(CliError::usage("pass exactly one of --output or --cell")),
    };
    let outcome = reg.time_phase(phases::SLICE, || slicer.slice_with_stats(&criterion));
    slicer.record_query_metrics(reg);
    match outcome {
        Ok((slice, stats)) => {
            stats.record_metrics_for(slicer.name(), reg);
            reg.counter_set("slice.statements", slice.len() as u64);
            print_slice(session, &slice.stmts);
            if algo == Algo::Lp {
                eprintln!(
                    "[LP: {} passes, {} chunks read, {} skipped]",
                    stats.passes, stats.chunks_read, stats.chunks_skipped,
                );
            }
            print_backend_trailer(slicer, a);
            emit_metrics(a, reg, slicer.name())
        }
        Err(SliceError::Truncated { partial }) => {
            // The partial slice is still worth seeing; the exit
            // code (4) and the counter mark it incomplete.
            reg.counter_add("lp.truncated", 1);
            reg.counter_set("slice.statements", partial.len() as u64);
            print_slice(session, &partial.stmts);
            emit_metrics(a, reg, slicer.name())?;
            Err(SliceError::Truncated { partial }.into())
        }
        Err(e) => {
            emit_metrics(a, reg, slicer.name())?;
            Err(e.into())
        }
    }
}

/// Runs the Fig. 18-style batch over an already-built backend — shared
/// by the trace-built and snapshot-restored paths.
fn run_slice_batch(
    a: &Args,
    slicer: &dynslice::AnySlicer<'_>,
    num_outputs: usize,
    reg: &Registry,
) -> Result<(), CliError> {
    let graph = slicer.compact_graph().expect("batch backends expose the graph");
    let batch = build_batch(graph, num_outputs, a)?;
    let config = BatchConfig {
        workers: a.workers.unwrap_or_else(|| BatchConfig::default().workers).max(1),
        cache: a.cache,
    };
    let engine = BatchSliceEngine::new(slicer, config);
    let result = run_batch(&engine, &batch, a.shortcuts, reg);
    slicer.record_query_metrics(reg);
    if let dynslice::AnySlicer::Paged(paged) = slicer {
        let st = paged.stats();
        println!(
            "  paged: {} block hits, {} misses ({:.1}% hit rate), {} KB read",
            st.hits,
            st.misses,
            st.hit_rate() * 100.0,
            st.bytes_read / 1024,
        );
        println!(
            "  memory: {:.1} KB resident ({} page budget), {:.1} KB spilled",
            paged.resident_bytes() as f64 / 1024.0,
            a.resident_blocks,
            paged.spilled_bytes() as f64 / 1024.0,
        );
    }
    // The report is written even for a lossy batch (the
    // `batch.failed_queries` counter is the signal CI diffs); the
    // exit code still goes nonzero so the run can't greenlight.
    emit_metrics(a, reg, &format!("batch-{}", slicer.name()))?;
    if let Some(msg) = result.failure() {
        return Err(CliError::from(msg));
    }
    Ok(())
}

/// `slice`/`slice-batch --from-snapshot`: `<file>` is a `.dsnap`
/// snapshot; the graph is restored instead of re-tracing, so the load is
/// O(graph size) rather than O(trace length). The snapshot's source is
/// recompiled only to render statement locations.
fn run_from_snapshot(a: &Args, reg: &Registry) -> Result<(), CliError> {
    if !matches!(a.cmd.as_str(), "slice" | "slice-batch") {
        return Err(CliError::usage("--from-snapshot applies to slice and slice-batch"));
    }
    let (snap, nbytes) = reg
        .time_phase(phases::SNAPSHOT_IO, || {
            dynslice::snapshot::load(std::path::Path::new(&a.file))
        })
        .map_err(|e| CliError {
            code: ErrorKind::Io.exit_code(),
            message: format!("{}: {e}", a.file),
        })?;
    reg.counter_add("snapshot.read_bytes", nbytes);
    let session = Session::compile(&snap.source).map_err(|d| {
        CliError::from(
            d.0.iter().map(|x| x.render(&snap.source)).collect::<Vec<_>>().join("\n"),
        )
    })?;
    let algo = if a.cmd == "slice-batch" {
        if a.paged {
            Algo::Paged
        } else {
            Algo::Opt
        }
    } else {
        a.algo()?
    };
    let num_outputs = snap.graph.outputs.len();
    let slicer =
        dynslice::graph_slicer(snap.graph, algo, &a.slicer_config(), reg).map_err(|e| {
            if e.kind() == std::io::ErrorKind::InvalidInput {
                CliError::usage(e.to_string())
            } else {
                e.into()
            }
        })?;
    slicer.record_build_metrics(reg);
    match a.cmd.as_str() {
        "slice" => run_slice(a, &session, &slicer, algo, reg),
        _ => run_slice_batch(a, &slicer, num_outputs, reg),
    }
}

fn run() -> Result<(), CliError> {
    let a = parse_args().map_err(CliError::usage)?;
    if a.cmd == "metrics-validate" {
        let text = std::fs::read_to_string(&a.file)
            .map_err(|e| CliError::from(format!("{}: {e}", a.file)))?;
        let report = RunReport::from_json(&text)
            .map_err(|e| CliError::from(format!("{}: {e}", a.file)))?;
        println!(
            "{}: valid run report (algorithm {}, {} counters, {} phases)",
            a.file,
            report.algorithm,
            report.counters.len(),
            report.phases_ms.len()
        );
        return Ok(());
    }
    let reg = if a.metrics_json.is_some() { Registry::new() } else { Registry::disabled() };
    if a.from_snapshot {
        return run_from_snapshot(&a, &reg);
    }
    let src = std::fs::read_to_string(&a.file)
        .map_err(|e| CliError::from(format!("{}: {e}", a.file)))?;
    let session = Session::compile(&src).map_err(|d| {
        CliError::from(d.0.iter().map(|x| x.render(&src)).collect::<Vec<_>>().join("\n"))
    })?;
    let trace = reg.time_phase(phases::TRACE_CAPTURE, || session.run(a.input.clone()));
    reg.counter_set("trace.stmts_executed", trace.stmts_executed);
    reg.counter_set("trace.unique_stmts", trace.unique_stmts_executed() as u64);
    reg.counter_set("trace.activations", trace.frames as u64);
    reg.counter_set("trace.outputs", trace.output.len() as u64);
    reg.counter_set("trace.truncated", u64::from(trace.truncated));

    match a.cmd.as_str() {
        "run" => {
            for v in &trace.output {
                println!("{v}");
            }
            eprintln!(
                "[{} statements executed, {} unique, {} activations{}]",
                trace.stmts_executed,
                trace.unique_stmts_executed(),
                trace.frames,
                if trace.truncated { ", TRUNCATED" } else { "" }
            );
            emit_metrics(&a, &reg, "trace")
        }
        "slice" => {
            let algo = a.algo()?;
            let slicer = session.build_slicer(algo, &trace, &a.slicer_config(), &reg)?;
            slicer.record_build_metrics(&reg);
            run_slice(&a, &session, &slicer, algo, &reg)
        }
        "snapshot" => {
            let Some(out_path) = &a.snapshot_out else {
                return Err(CliError::usage("snapshot needs `-o FILE.dsnap`"));
            };
            if trace.truncated {
                return Err(CliError::from(String::from(
                    "trace truncated; raise the step limit",
                )));
            }
            let config = a.slicer_config();
            let graph = reg.time_phase(phases::GRAPH_BUILD, || {
                dynslice::build_compact(
                    &session.program,
                    &session.analysis,
                    &trace.events,
                    &config.opt,
                )
            });
            let snap = dynslice::Snapshot {
                source: src.clone(),
                input: a.input.clone(),
                config: config.opt.clone(),
                graph,
            };
            let n = reg.time_phase(phases::SNAPSHOT_IO, || {
                dynslice::snapshot::save(std::path::Path::new(out_path), &snap)
            })?;
            reg.counter_add("snapshot.write_bytes", n);
            println!(
                "snapshot: wrote {n} bytes to {out_path} ({} node execs, {} outputs)",
                snap.graph.num_node_execs,
                snap.graph.outputs.len(),
            );
            emit_metrics(&a, &reg, "snapshot")
        }
        "serve" => {
            if let Some(spec) = &a.fault_plan {
                let plan = dynslice_faults::FaultPlan::parse(spec).map_err(CliError::usage)?;
                dynslice_faults::install(Some(plan));
                eprintln!("[fault plan armed: {spec}]");
            }
            let algo = a.algo()?;
            let slicer = OwnedSlicer::from_trace(session, &trace, algo, &a.slicer_config(), &reg)?;
            slicer.slicer().record_build_metrics(&reg);
            let config = ServeConfig {
                workers: a.workers.unwrap_or_else(|| ServeConfig::default().workers).max(1),
                loaders: a.loaders,
                timeout: a.timeout_ms.map(Duration::from_millis),
                queue_depth: a.queue_depth,
                max_connections: a.max_connections,
                idle_timeout: a.idle_timeout_ms.map(Duration::from_millis),
                max_line_bytes: a.max_line_bytes,
            };
            let budget = a.memory_budget_mb.map(|mb| (mb * 1024.0 * 1024.0) as u64);
            let mut manager = SessionManager::new(
                algo,
                a.slicer_config(),
                a.max_sessions,
                budget,
                if a.cache { a.cache_capacity } else { 0 },
            );
            let default = manager.default_entry(slicer);
            if let Some(dir) = &a.snapshot_dir {
                manager.set_snapshot_dir(dir);
                eprintln!("[snapshot cache at {dir}]");
            }
            for entry in &a.preload {
                let spec = SessionSpec::parse(entry).map_err(CliError::usage)?;
                manager
                    .load(&spec, &reg)
                    .map_err(|e| CliError::from(format!("--preload {entry}: {e}")))?;
                eprintln!("[preloaded session `{}` from {}]", spec.name, spec.program.display());
            }
            let mut transports = Vec::new();
            let mut endpoints = Vec::new();
            if let Some(path) = &a.socket {
                transports.push(Transport::unix(path.into())?);
                endpoints.push(format!("unix:{path}"));
            }
            if let Some(addr) = &a.tcp {
                let t = Transport::tcp(addr)?;
                let bound = t.local_addr().expect("tcp transport knows its bound address");
                if let Some(pf) = &a.port_file {
                    // Written only after a successful bind so pollers
                    // (tests, CI) never race an unbound port.
                    std::fs::write(pf, format!("{bound}\n"))?;
                }
                endpoints.push(format!("tcp:{bound}"));
                transports.push(t);
            }
            if transports.is_empty() {
                endpoints.push("stdio".into());
            }
            let algo_name = default.slicer().name();
            eprintln!(
                "[serving {algo_name} slices on {} with {} workers]",
                endpoints.join(" + "),
                config.workers,
            );
            serve(&default, &manager, &config, transports, &reg)?;
            default.slicer().record_query_metrics(&reg);
            let c = manager.server_counters();
            let n = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
            eprintln!(
                "[serve: {} requests, {} ok ({} cached), {} timeouts, {} rejected, \
                 {} bad, {} failed; sessions: {} loaded, {} evicted, {} unloaded, \
                 {} quarantined]",
                n(&c.requests),
                n(&c.responses_ok),
                n(&c.cache_hits),
                n(&c.timeouts),
                n(&c.rejected),
                n(&c.bad_requests),
                n(&c.failed),
                n(&c.sessions_loaded),
                n(&c.sessions_evicted),
                n(&c.sessions_unloaded),
                n(&c.sessions_quarantined),
            );
            let retries = dynslice_faults::retries();
            if n(&c.panics) > 0 || retries > 0 {
                eprintln!("[faults: {} panics caught, {retries} reads retried]", n(&c.panics));
            }
            eprintln!(
                "[net: {} connections (peak {}), {} handshakes, {} busy-rejected, \
                 {} oversized, {}/{} bytes in/out]",
                n(&c.connections),
                n(&c.connections_peak),
                n(&c.handshakes),
                n(&c.rejected_busy),
                n(&c.oversized),
                n(&c.read_bytes),
                n(&c.write_bytes),
            );
            emit_metrics_with_sessions(
                &a,
                &reg,
                &format!("serve-{algo_name}"),
                manager.final_reports(),
            )
        }
        "slice-batch" => {
            if trace.truncated {
                return Err(CliError::from(String::from(
                    "trace truncated; raise the step limit",
                )));
            }
            let algo = if a.paged { Algo::Paged } else { Algo::Opt };
            let slicer = session.build_slicer(algo, &trace, &a.slicer_config(), &reg)?;
            slicer.record_build_metrics(&reg);
            run_slice_batch(&a, &slicer, trace.output.len(), &reg)
        }
        "report" => {
            let fp = reg.time_phase(phases::GRAPH_BUILD, || session.fp(&trace));
            let opt = reg.time_phase(phases::GRAPH_BUILD, || {
                session.opt(&trace, &dynslice::OptConfig::default())
            });
            let full = fp.graph().size();
            let compact = opt.graph().size(false);
            compact.record_metrics(&reg);
            opt.graph().stats.record_metrics(&reg);
            reg.counter_set("graph.full_bytes", full.bytes());
            println!("executed statements : {}", trace.stmts_executed);
            println!("unique (USE)        : {}", trace.unique_stmts_executed());
            println!("full graph          : {:.1} KB ({} pairs)", full.bytes() as f64 / 1024.0, full.pairs);
            println!(
                "compacted graph     : {:.1} KB ({} pairs, {} static edges, {} nodes)",
                compact.bytes() as f64 / 1024.0,
                compact.pairs,
                compact.static_edges,
                compact.nodes
            );
            println!("compaction ratio    : {:.2}x", full.bytes() as f64 / compact.bytes() as f64);
            println!("explicit fraction   : {:.1}%", opt.graph().stats.explicit_fraction() * 100.0);
            emit_metrics(&a, &reg, "report")
        }
        "dot" => {
            let opt = reg.time_phase(phases::GRAPH_BUILD, || {
                session.opt(&trace, &dynslice::OptConfig::default())
            });
            opt.graph().size(false).record_metrics(&reg);
            match (a.output, a.cell) {
                (None, None) => {
                    print!(
                        "{}",
                        dynslice::graph::compact_to_dot(
                            &session.program,
                            opt.graph(),
                            a.dynamic_edges
                        )
                    );
                }
                (output, cell) => {
                    let criterion = match (output, cell) {
                        (Some(k), None) => Criterion::Output(k),
                        (None, Some(c)) => Criterion::CellLastDef(c),
                        _ => return Err(CliError::usage("pass at most one of --output / --cell")),
                    };
                    let slice = reg.time_phase(phases::SLICE, || opt.slice(&criterion))?;
                    reg.counter_set("slice.statements", slice.len() as u64);
                    let crit_occ = match criterion {
                        Criterion::Output(k) => opt.graph().outputs[k].0,
                        Criterion::CellLastDef(c) => {
                            opt.graph().last_def_of(c).expect("sliced criterion exists").0
                        }
                    };
                    let crit_stmt = opt.graph().stmt_of(crit_occ);
                    print!(
                        "{}",
                        dynslice::graph::slice_to_dot(&session.program, &slice.stmts, crit_stmt)
                    );
                }
            }
            emit_metrics(&a, &reg, "dot")
        }
        other => Err(CliError::usage(format!("unknown command `{other}`\n{}", usage()))),
    }
}
