//! Snapshot restore vs cold rebuild — the artifact behind `dynslice
//! serve --snapshot-dir`: how long a session load takes when the compact
//! graph is deserialized from a `.dsnap` file instead of re-traced and
//! rebuilt from scratch.
//!
//! For every workload the harness times the cold path (VM replay of the
//! trace plus the sequential compact-graph build; a cache miss also pays
//! the source compile, which this column leaves out) against the warm
//! path (read + checksum + decode of the snapshot). The serve column is
//! what a `dynslice serve` cache hit pays for an OPT session: the same
//! read + checksum + decode plus [`OwnedSlicer::from_snapshot`], which
//! adopts the graph and compiles nothing. Each column is the median of
//! `PREPROCESS_RUNS` runs. Every restored graph is verified
//! **bit-identical** to the freshly built one before its time is
//! reported — a fast-but-wrong restore fails the harness rather than
//! landing in the trajectory.
//!
//! The headline claim: restore cost is O(graph size), not O(trace
//! length), so the speedup grows with the trace/graph ratio the paper's
//! compaction delivers.

use dynslice::snapshot::{self, Snapshot};
use dynslice::{build_compact, Algo, OptConfig, OwnedSlicer, Registry, SlicerConfig, VmOptions};
use dynslice_bench::*;

fn main() {
    header("Snapshot load", "deserialized session loads vs cold trace replay + build");
    println!("   (median of {PREPROCESS_RUNS} runs per program and column)");
    println!(
        "{:<14} {:>9} {:>10} {:>9} {:>9} {:>9} {:>9} {:>8}",
        "benchmark", "events", "snap KB", "cold ms", "write ms", "load ms", "serve ms", "cold/load"
    );
    let slicer_config = SlicerConfig::default();
    let reg = Registry::disabled();
    let report = BenchReport::new("snapshot_load");
    let config = OptConfig::default();
    let dir = std::env::temp_dir().join(format!("dynslice-bench-snap-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for w in &dynslice::workloads::suite() {
        let p = prepare(w);
        let input = w.input.clone();
        // Cold path: replay the trace and build the graph (the compile a
        // cache miss also pays is left out).
        let cold = || {
            let trace =
                p.session.run_with(VmOptions { input: input.clone(), ..Default::default() });
            let graph =
                build_compact(&p.session.program, &p.session.analysis, &trace.events, &config);
            (trace, graph)
        };
        let (trace, graph) = cold();
        let cold_t = median_time(PREPROCESS_RUNS, cold);
        let events = trace.events.len();
        let snap = Snapshot {
            source: w.source(scale()),
            input,
            config: config.clone(),
            graph,
        };
        let path = dir.join(format!("{}.dsnap", p.name));
        let save = || snapshot::save(&path, &snap).expect("write snapshot");
        let bytes = save();
        let write_t = median_time(PREPROCESS_RUNS, save);
        // Warm path: read + checksum + decode. Verified before it is
        // timed, so the comparison never times a wrong graph.
        let load = || snapshot::load(&path).expect("read snapshot").0;
        assert_eq!(
            load().graph.first_difference(&snap.graph),
            None,
            "{}: restored graph must be bit-identical",
            p.name
        );
        let load_t = median_time(PREPROCESS_RUNS, load);
        // Serve path: a cache hit's restore into an OPT session.
        let serve = || {
            OwnedSlicer::from_snapshot(load(), Algo::Opt, &slicer_config, &reg).expect("restore")
        };
        let served = serve();
        let served_graph = served.slicer().compact_graph().expect("OPT has a graph");
        assert_eq!(
            served_graph.first_difference(&snap.graph),
            None,
            "{}: served graph must be bit-identical",
            p.name
        );
        let serve_t = median_time(PREPROCESS_RUNS, serve);
        let speedup = cold_t.as_secs_f64() / load_t.as_secs_f64().max(1e-9);
        report.counter(p.name, "events", events as u64);
        report.counter(p.name, "snapshot_bytes", bytes);
        report.gauge(p.name, "cold_build_ms", cold_t.as_secs_f64() * 1e3);
        report.gauge(p.name, "snapshot_write_ms", write_t.as_secs_f64() * 1e3);
        report.gauge(p.name, "snapshot_load_ms", load_t.as_secs_f64() * 1e3);
        report.gauge(p.name, "serve_restore_ms", serve_t.as_secs_f64() * 1e3);
        report.gauge(p.name, "speedup_vs_cold", speedup);
        println!(
            "{:<14} {:>9} {:>10.1} {:>9} {:>9} {:>9} {:>9} {:>7.2}x",
            p.name,
            events,
            bytes as f64 / 1024.0,
            ms(cold_t),
            ms(write_t),
            ms(load_t),
            ms(serve_t),
            speedup,
        );
        let _ = std::fs::remove_file(&path);
    }
    let _ = std::fs::remove_dir(&dir);
    println!("(cold = trace replay + sequential graph build; load = read + checksum + decode;");
    println!(" serve = load + OPT session restore, no compile — restores scale with graph size,");
    println!(" not trace length)");
    report.finish();
}
