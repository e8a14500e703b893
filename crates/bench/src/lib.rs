//! Shared helpers for the benchmark harnesses that regenerate the paper's
//! tables and figures (one `harness = false` bench target per artifact; see
//! `DESIGN.md` §5 for the experiment index).
//!
//! Environment knobs:
//! * `DYNSLICE_SCALE` — workload scale factor (default 0.3); the paper's
//!   shapes are scale-invariant, so smaller values give faster runs.
//! * `DYNSLICE_QUERIES` — slice queries per measurement (default 25, as in
//!   the paper).

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use dynslice::{
    pick_cells, workloads, Cell, Criterion, Registry, RunReport, Session, Trace, VmOptions,
    Workload,
};

/// A compiled-and-traced workload ready for graph building.
pub struct Prepared {
    /// Workload name (paper benchmark row).
    pub name: &'static str,
    /// Suite label.
    pub suite: &'static str,
    /// Compiled program + analyses.
    pub session: Session,
    /// The traced run.
    pub trace: Trace,
}

/// Workload scale factor from the environment.
pub fn scale() -> f64 {
    std::env::var("DYNSLICE_SCALE").ok().and_then(|s| s.parse().ok()).unwrap_or(0.3)
}

/// Number of slice queries per measurement point.
pub fn num_queries() -> usize {
    std::env::var("DYNSLICE_QUERIES").ok().and_then(|s| s.parse().ok()).unwrap_or(25)
}

/// Compiles and traces one workload at the configured scale.
pub fn prepare(w: &Workload) -> Prepared {
    let src = w.source(scale());
    let session = Session::compile(&src).expect("workload compiles");
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    assert!(!trace.truncated, "{} truncated; lower DYNSLICE_SCALE", w.name);
    Prepared { name: w.name, suite: w.suite, session, trace }
}

/// Compiles and traces the whole suite.
pub fn prepare_all() -> Vec<Prepared> {
    workloads::suite().iter().map(prepare).collect()
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed())
}

/// Runs per preprocessing measurement (Tables 4, 5 and 8), and passes
/// over the query set per slicing-time column (Tables 3 and 7).
pub const PREPROCESS_RUNS: usize = 5;

/// The median wall-clock time of `runs` calls of `f`: a single build's
/// time swings with allocator and cache warm-up.
pub fn median_time<R>(runs: usize, mut f: impl FnMut() -> R) -> Duration {
    let mut times: Vec<Duration> = (0..runs.max(1)).map(|_| time(&mut f).1).collect();
    times.sort_unstable();
    times[times.len() / 2]
}

/// The query set for a prepared workload: up to `num_queries()` distinct
/// defined cells, evenly spaced (the paper's "25 distinct memory
/// references").
pub fn queries(defined: impl IntoIterator<Item = Cell>) -> Vec<Criterion> {
    pick_cells(defined, num_queries())
        .into_iter()
        .map(Criterion::CellLastDef)
        .collect()
}

/// Formats a duration in milliseconds with 2 decimals.
pub fn ms(d: Duration) -> String {
    format!("{:.2}", d.as_secs_f64() * 1e3)
}

/// Prints the standard harness header.
pub fn header(artifact: &str, what: &str) {
    println!("== {artifact} — {what}");
    println!(
        "   (scale {}, {} queries per point; shapes, not absolute numbers, are the claim)",
        scale(),
        num_queries()
    );
}

/// Directory where `BENCH_<name>.json` trajectory files land
/// (`DYNSLICE_BENCH_DIR`, default the working directory — the repo root
/// under `cargo bench`).
pub fn bench_report_dir() -> PathBuf {
    std::env::var("DYNSLICE_BENCH_DIR").map(PathBuf::from).unwrap_or_else(|_| PathBuf::from("."))
}

/// A unified-schema metrics sink for one bench harness. Rows register
/// counters and gauges as `<benchmark>.<metric>`; [`BenchReport::finish`]
/// writes `BENCH_<name>.json` in the same [`RunReport`] schema the CLI's
/// `--metrics-json` emits, so the repo's perf trajectory is diffable with
/// the same tooling.
pub struct BenchReport {
    name: &'static str,
    reg: Registry,
}

impl BenchReport {
    /// A sink for harness `name` (the `BENCH_<name>.json` stem).
    pub fn new(name: &'static str) -> Self {
        BenchReport { name, reg: Registry::new() }
    }

    /// The underlying registry, for direct `RecordMetrics` use.
    pub fn registry(&self) -> &Registry {
        &self.reg
    }

    /// Sets counter `<bench>.<metric>`.
    pub fn counter(&self, bench: &str, metric: &str, v: u64) {
        self.reg.counter_set(&format!("{bench}.{metric}"), v);
    }

    /// Sets gauge `<bench>.<metric>`.
    pub fn gauge(&self, bench: &str, metric: &str, v: f64) {
        self.reg.gauge_set(&format!("{bench}.{metric}"), v);
    }

    /// Writes `BENCH_<name>.json` into [`bench_report_dir`], creating it
    /// if needed, and returns its path. The emitted document is re-parsed
    /// before landing, so a harness can never write a report the schema
    /// validator would reject.
    pub fn finish(self) -> PathBuf {
        self.finish_in(&bench_report_dir())
    }

    fn finish_in(self, dir: &Path) -> PathBuf {
        let mut config = std::collections::BTreeMap::new();
        config.insert("scale".to_string(), scale().to_string());
        config.insert("queries".to_string(), num_queries().to_string());
        let report = self.reg.report(format!("bench/{}", self.name), config);
        RunReport::from_json(&report.to_json()).expect("bench report must satisfy the schema");
        std::fs::create_dir_all(dir).expect("create bench report directory");
        let path = dir.join(format!("BENCH_{}.json", self.name));
        report.write_to(&path).expect("write bench report");
        println!("[bench trajectory written to {}]", path.display());
        path
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report directory that does not exist yet is created, nested
    /// levels included, rather than failing after the harness has run.
    #[test]
    fn finish_creates_a_missing_report_directory() {
        let root = std::env::temp_dir().join(format!("dynslice-bench-dir-{}", std::process::id()));
        let dir = root.join("nested").join("reports");
        assert!(!dir.exists());
        let report = BenchReport::new("dir_test");
        report.counter("prog", "queries", 3);
        let path = report.finish_in(&dir);
        assert_eq!(path, dir.join("BENCH_dir_test.json"));
        let text = std::fs::read_to_string(&path).unwrap();
        let parsed = RunReport::from_json(&text).unwrap();
        assert_eq!(parsed.counter_or_zero("prog.queries"), 3);
        std::fs::remove_dir_all(&root).unwrap();
    }
}
