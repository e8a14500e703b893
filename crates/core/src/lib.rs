//! **dynslice** — a reproduction of *Cost Effective Dynamic Program
//! Slicing* (Zhang & Gupta, PLDI 2004) as a reusable Rust library.
//!
//! The crate stitches the subsystem crates into one pipeline:
//!
//! 1. compile MiniC source ([`Session::compile`], via `dynslice-lang`);
//! 2. execute it under the tracing VM ([`Session::run`]);
//! 3. build a dependence representation — the full graph (FP), the
//!    compacted graph (OPT, the paper's contribution) or the on-disk
//!    record stream (LP);
//! 4. answer slicing queries ([`Criterion`]) and inspect costs
//!    ([`GraphSize`], [`BuildStats`], [`LpStats`]).
//!
//! # Quickstart
//!
//! ```
//! use dynslice::{Criterion, OptConfig, Session};
//!
//! let session = Session::compile(
//!     "global int a[2];
//!      fn main() { a[0] = input(); a[1] = a[0] * 2; print a[1]; }",
//! ).map_err(|e| e.to_string())?;
//! let trace = session.run(vec![21]);
//! let opt = session.opt(&trace, &OptConfig::default());
//! use dynslice::Slicer as _;
//! let slice = opt.slice(&Criterion::Output(0)).expect("print executed");
//! assert!(slice.len() >= 3); // input, multiply, print
//! # Ok::<(), String>(())
//! ```

pub mod client;
pub mod criteria;
pub mod protocol;
pub mod server;
pub mod sessions;

pub use dynslice_analysis::{self as analysis, ProgramAnalysis};
pub use dynslice_graph::{
    self as graph, build_compact, profile_trace, snapshot, BuildPlan, BuildStats,
    CompactGraph, FullGraph, GraphSize, NodeGraph, OptConfig, OptKind, PagedGraph, PagedStats,
    Snapshot, SnapshotError, SpecPlan, SpecPolicy,
};
pub use dynslice_ir::{self as ir, Program, StmtId};
pub use dynslice_lang::{self as lang, compile, Diags};
pub use dynslice_obs::{self as obs, phases, RecordMetrics, Registry, RunReport, SessionReport};
pub use dynslice_profile::{self as profile, PathProfile, ProgramPaths};
pub use dynslice_runtime::{self as runtime, Cell, Trace, TraceEvent, VmOptions};
pub use dynslice_sequitur as sequitur;
pub use dynslice_graph::TraversalStats;
pub use dynslice_slicing::{
    self as slicing, slice_batch, BatchConfig, BatchResult, BatchSliceEngine, BatchStats,
    Criterion, ForwardSlicer, FpSlicer, LpSlicer, LpStats, OptSlicer, Slice, SliceError,
    SliceStats, Slicer, WorkerStats,
};
pub use dynslice_workloads::{self as workloads, Workload};

pub use client::{ClientBuilder, ServerInfo, SliceClient};
pub use server::{serve, ServeConfig, ServerCounters, Transport};
pub use sessions::{
    LoadError, OwnedSlicer, SessionEntry, SessionLease, SessionManager, SessionSpec, Unload,
};

use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Distinguishes scratch files created by concurrent builds in one
/// process: the multi-trace server builds several disk-backed slicers
/// into the same scratch directory, so pid-only names would collide.
static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

pub(crate) fn scratch_path(dir: &Path, prefix: &str, ext: &str) -> PathBuf {
    let seq = SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed);
    dir.join(format!("{prefix}-{}-{seq}.{ext}", std::process::id()))
}

/// A compiled program plus its static analyses: the entry point for
/// everything downstream.
#[derive(Debug)]
pub struct Session {
    /// The compiled program.
    pub program: Program,
    /// Whole-program static analyses.
    pub analysis: ProgramAnalysis,
}

impl Session {
    /// Compiles MiniC source and runs the static analyses.
    ///
    /// # Errors
    /// Returns front-end diagnostics.
    pub fn compile(src: &str) -> Result<Self, Diags> {
        let program = dynslice_lang::compile(src)?;
        let analysis = ProgramAnalysis::compute(&program);
        Ok(Self { program, analysis })
    }

    /// Wraps an already-built IR program.
    pub fn from_program(program: Program) -> Self {
        let analysis = ProgramAnalysis::compute(&program);
        Self { program, analysis }
    }

    /// Executes the program with the given input tape (default VM limits).
    pub fn run(&self, input: Vec<i64>) -> Trace {
        dynslice_runtime::run(&self.program, VmOptions { input, ..Default::default() })
    }

    /// Executes with explicit VM options.
    pub fn run_with(&self, options: VmOptions) -> Trace {
        dynslice_runtime::run(&self.program, options)
    }

    /// Builds the FP (full-graph) slicer from a trace. The slicer borrows
    /// the session's program, so queries need only a [`Criterion`].
    pub fn fp(&self, trace: &Trace) -> FpSlicer<'_> {
        FpSlicer::build(&self.program, &self.analysis, &trace.events)
    }

    /// Builds the OPT (compacted-graph) slicer from a trace.
    pub fn opt(&self, trace: &Trace, config: &OptConfig) -> OptSlicer {
        OptSlicer::build(&self.program, &self.analysis, &trace.events, config)
    }

    /// Builds the forward-computation slicer (the related-work baseline
    /// family the paper contrasts with in §5): all slices precomputed
    /// during one pass over the trace.
    pub fn forward(&self, trace: &Trace) -> ForwardSlicer {
        ForwardSlicer::build(&self.program, &self.analysis, &trace.events)
    }

    /// Builds the LP (demand-driven, on-disk) slicer from a trace.
    ///
    /// # Errors
    /// Propagates I/O errors from writing the record file.
    pub fn lp<'s>(&'s self, trace: &Trace, path: impl AsRef<Path>) -> io::Result<LpSlicer<'s>> {
        LpSlicer::build(&self.program, &self.analysis, &trace.events, path)
    }

    /// Builds the paged OPT+LP hybrid (paper §4.2): the compacted graph
    /// with its label pages spilled to `path`, keeping `resident_blocks`
    /// 4 KiB pages cached during slicing. The spill file is removed when the
    /// returned graph is dropped (see [`PagedGraph::keep_spill_file`]).
    ///
    /// # Errors
    /// Propagates I/O errors from writing the spill file.
    pub fn paged(
        &self,
        trace: &Trace,
        config: &OptConfig,
        path: impl AsRef<Path>,
        resident_blocks: usize,
    ) -> io::Result<PagedGraph> {
        let graph = build_compact(&self.program, &self.analysis, &trace.events, config);
        PagedGraph::spill(graph, path, resident_blocks)
    }

    /// Builds the backend `algo` names behind the unified [`Slicer`]
    /// surface, timing the build under the appropriate [`phases`] entry.
    /// This is the one construction path shared by `dynslice slice`,
    /// `dynslice serve`, and library consumers that select the algorithm
    /// at runtime.
    ///
    /// # Errors
    /// Propagates I/O errors from the disk-backed builds (LP record
    /// stream, paged spill file).
    pub fn build_slicer(
        &self,
        algo: Algo,
        trace: &Trace,
        config: &SlicerConfig,
        reg: &Registry,
    ) -> io::Result<AnySlicer<'_>> {
        Ok(match algo {
            Algo::Fp => AnySlicer::Fp(reg.time_phase(phases::GRAPH_BUILD, || self.fp(trace))),
            Algo::Opt => {
                let mut opt = reg.time_phase(phases::GRAPH_BUILD, || self.opt(trace, &config.opt));
                opt.shortcuts = config.shortcuts;
                AnySlicer::Opt(opt)
            }
            Algo::Forward => {
                AnySlicer::Forward(reg.time_phase(phases::GRAPH_BUILD, || self.forward(trace)))
            }
            Algo::Lp => {
                std::fs::create_dir_all(&config.scratch_dir)?;
                let path = scratch_path(&config.scratch_dir, "records", "bin");
                let lp = reg.time_phase(phases::RECORD_PREPROCESS, || self.lp(trace, path))?;
                AnySlicer::Lp(match config.lp_max_passes {
                    Some(n) => lp.with_max_passes(n),
                    None => lp,
                })
            }
            Algo::Paged => {
                std::fs::create_dir_all(&config.scratch_dir)?;
                let path = scratch_path(&config.scratch_dir, "spill", "pg");
                let mut paged = reg.time_phase(phases::RECORD_PREPROCESS, || {
                    let graph =
                        build_compact(&self.program, &self.analysis, &trace.events, &config.opt);
                    PagedGraph::spill(graph, path, config.resident_blocks)
                })?;
                paged.shortcuts = config.shortcuts;
                AnySlicer::Paged(paged)
            }
        })
    }
}

/// Algorithm selector for [`Session::build_slicer`]: the paper's three
/// backward algorithms, the forward baseline, and the §4.2 paged hybrid.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Algo {
    /// Full-graph slicing.
    Fp,
    /// Compacted-graph slicing (the paper's contribution).
    Opt,
    /// Demand-driven slicing over the on-disk record stream.
    Lp,
    /// Forward precomputation.
    Forward,
    /// OPT with labels demand-paged from disk.
    Paged,
}

impl Algo {
    /// The label [`Slicer::name`] reports for this algorithm.
    pub fn name(self) -> &'static str {
        match self {
            Algo::Fp => "fp",
            Algo::Opt => "opt",
            Algo::Lp => "lp",
            Algo::Forward => "forward",
            Algo::Paged => "paged",
        }
    }
}

impl std::str::FromStr for Algo {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "fp" => Ok(Algo::Fp),
            "opt" => Ok(Algo::Opt),
            "lp" => Ok(Algo::Lp),
            "forward" => Ok(Algo::Forward),
            "paged" => Ok(Algo::Paged),
            other => Err(format!("unknown algorithm `{other}` (fp|opt|lp|forward|paged)")),
        }
    }
}

/// Knobs for [`Session::build_slicer`], covering every backend; the ones
/// an algorithm does not use are ignored.
#[derive(Clone, Debug)]
pub struct SlicerConfig {
    /// OPT graph-build configuration (also the paged hybrid's base graph).
    pub opt: OptConfig,
    /// Whether OPT and paged queries traverse shortcut edges.
    pub shortcuts: bool,
    /// Directory for LP record streams and paged spill files.
    pub scratch_dir: PathBuf,
    /// Resident budget for the paged hybrid, in 4 KiB label pages.
    pub resident_blocks: usize,
    /// LP pass-budget override ([`dynslice_slicing::DEFAULT_MAX_PASSES`]
    /// when `None`).
    pub lp_max_passes: Option<u32>,
}

impl Default for SlicerConfig {
    fn default() -> Self {
        SlicerConfig {
            opt: OptConfig::default(),
            shortcuts: true,
            scratch_dir: std::env::temp_dir().join("dynslice-scratch"),
            resident_blocks: 128,
            lp_max_passes: None,
        }
    }
}

/// The runtime-selected [`Slicer`]: one enum over every backend, so the
/// CLI and the slice server hold "whatever `--algo` named" as a single
/// value and stay generic-free. Library code with a statically known
/// algorithm should use the concrete types directly.
#[derive(Debug)]
pub enum AnySlicer<'s> {
    /// Full-graph slicer.
    Fp(FpSlicer<'s>),
    /// Compacted-graph slicer.
    Opt(OptSlicer),
    /// Demand-driven on-disk slicer.
    Lp(LpSlicer<'s>),
    /// Forward-computation slicer.
    Forward(ForwardSlicer),
    /// Demand-paged hybrid.
    Paged(PagedGraph),
}

impl<'s> AnySlicer<'s> {
    /// This backend without the borrow of the compiled program, when its
    /// type carries none: OPT and paged own their compacted graph, and
    /// forward its precomputed slices. FP and LP borrow the program and
    /// come back unchanged as `Err`.
    // Both arms move the backend by value, once per build.
    #[allow(clippy::result_large_err)]
    pub(crate) fn into_owned(self) -> Result<AnySlicer<'static>, Self> {
        match self {
            AnySlicer::Opt(o) => Ok(AnySlicer::Opt(o)),
            AnySlicer::Forward(f) => Ok(AnySlicer::Forward(f)),
            AnySlicer::Paged(p) => Ok(AnySlicer::Paged(p)),
            borrowing @ (AnySlicer::Fp(_) | AnySlicer::Lp(_)) => Err(borrowing),
        }
    }
}

impl AnySlicer<'_> {
    /// The compacted graph, when this backend has one (OPT and paged) —
    /// criterion enumeration (`last_def`, `outputs`) lives there.
    pub fn compact_graph(&self) -> Option<&CompactGraph> {
        match self {
            AnySlicer::Opt(o) => Some(o.graph()),
            AnySlicer::Paged(p) => Some(p.graph()),
            _ => None,
        }
    }

    /// Bytes this backend keeps resident in memory between queries — the
    /// weight the slice server's memory budget charges a session for.
    /// Disk-resident payloads (the LP record stream, the paged spill
    /// file) are excluded: only what occupies RAM counts. OPT and paged
    /// charge the shortcut closures materialized so far, not every
    /// closure the graph could build: weighing never materializes one,
    /// and [`crate::sessions::SessionEntry::reweigh`] tracks the memo's
    /// growth under one rule for both.
    pub fn resident_bytes(&self) -> u64 {
        match self {
            AnySlicer::Fp(fp) => fp.graph().size().bytes(),
            AnySlicer::Opt(o) => o.graph().resident_size().bytes(),
            AnySlicer::Lp(lp) => lp.file().index_bytes() as u64,
            AnySlicer::Forward(f) => f.resident_bytes(),
            AnySlicer::Paged(p) => p.resident_bytes(),
        }
    }

    /// Registers the build-time cost counters of the underlying
    /// representation (graph sizes, record-file layout, …) under its
    /// component prefix — the same keys the per-algorithm CLI paths have
    /// always emitted. OPT's `graph.*` sizes count the shortcut closures
    /// materialized so far, the rule [`Self::resident_bytes`] charges, so
    /// reporting them materializes none.
    pub fn record_build_metrics(&self, reg: &Registry) {
        match self {
            AnySlicer::Fp(fp) => fp.graph().size().record_metrics(reg),
            AnySlicer::Opt(o) => {
                o.graph().resident_size().record_metrics(reg);
                o.graph().stats.record_metrics(reg);
            }
            AnySlicer::Lp(lp) => {
                reg.counter_set("lp.chunks", lp.file().chunks.len() as u64);
                reg.gauge_set("lp.index_bytes", lp.file().index_bytes() as f64);
                reg.gauge_set("lp.data_bytes", lp.file().data_bytes() as f64);
            }
            AnySlicer::Forward(f) => {
                reg.counter_set("forward.unions", f.unions);
                reg.counter_set("forward.distinct_sets", f.distinct_sets as u64);
                reg.gauge_set("forward.resident_bytes", f.resident_bytes() as f64);
            }
            AnySlicer::Paged(p) => {
                reg.gauge_set("paged.spilled_bytes", p.spilled_bytes() as f64);
                reg.gauge_set("paged.resident_bytes", p.resident_bytes() as f64);
            }
        }
    }

    /// Registers counters that accumulate *during* queries but live on the
    /// backend rather than in per-query [`SliceStats`] (the paged block
    /// cache's atomics). Call after the last query, before the report.
    pub fn record_query_metrics(&self, reg: &Registry) {
        if let AnySlicer::Paged(p) = self {
            p.record_metrics(reg);
        }
    }
}

impl Slicer for AnySlicer<'_> {
    fn name(&self) -> &'static str {
        match self {
            AnySlicer::Fp(s) => s.name(),
            AnySlicer::Opt(s) => s.name(),
            AnySlicer::Lp(s) => s.name(),
            AnySlicer::Forward(s) => s.name(),
            AnySlicer::Paged(s) => Slicer::name(s),
        }
    }

    fn slice_with_stats(&self, criterion: &Criterion) -> Result<(Slice, SliceStats), SliceError> {
        match self {
            AnySlicer::Fp(s) => s.slice_with_stats(criterion),
            AnySlicer::Opt(s) => s.slice_with_stats(criterion),
            AnySlicer::Lp(s) => s.slice_with_stats(criterion),
            AnySlicer::Forward(s) => s.slice_with_stats(criterion),
            AnySlicer::Paged(s) => Slicer::slice_with_stats(s, criterion),
        }
    }
}

/// Builds the backend `algo` names around an already-built compacted
/// graph — the snapshot restore path shared by the CLI
/// (`slice --from-snapshot`) and the session manager. Only graph-backed
/// algorithms qualify: OPT adopts the graph as-is, the paged hybrid
/// spills its label channels to scratch first. FP, LP, and forward
/// rebuild from the trace and cannot restore from a graph.
///
/// # Errors
/// `InvalidInput` for a non-graph-backed `algo`; otherwise I/O errors
/// from the paged spill.
pub fn graph_slicer(
    graph: CompactGraph,
    algo: Algo,
    config: &SlicerConfig,
    reg: &Registry,
) -> io::Result<AnySlicer<'static>> {
    Ok(match algo {
        Algo::Opt => {
            let mut opt = OptSlicer::from_graph(graph);
            opt.shortcuts = config.shortcuts;
            AnySlicer::Opt(opt)
        }
        Algo::Paged => {
            std::fs::create_dir_all(&config.scratch_dir)?;
            let path = scratch_path(&config.scratch_dir, "spill", "pg");
            let mut paged = reg.time_phase(phases::RECORD_PREPROCESS, || {
                PagedGraph::spill(graph, path, config.resident_blocks)
            })?;
            paged.shortcuts = config.shortcuts;
            AnySlicer::Paged(paged)
        }
        other => {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "snapshots restore compacted graphs; backend `{}` cannot load one",
                    other.name()
                ),
            ))
        }
    })
}

/// Picks up to `n` slice criteria: distinct memory cells defined during the
/// run, evenly spaced over the sorted cell space — the analogue of the
/// paper's "25 distinct memory references" per measurement point.
pub fn pick_cells(defined: impl IntoIterator<Item = Cell>, n: usize) -> Vec<Cell> {
    let mut cells: Vec<Cell> = defined.into_iter().collect();
    cells.sort();
    cells.dedup();
    if cells.len() <= n || n == 0 {
        return cells;
    }
    let step = cells.len() as f64 / n as f64;
    (0..n).map(|i| cells[(i as f64 * step) as usize]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn end_to_end_pipeline() {
        let s = Session::compile(
            "global int a[4];
             fn main() {
               int i;
               for (i = 0; i < 4; i = i + 1) { a[i] = i * i; }
               print a[3];
             }",
        )
        .unwrap();
        let t = s.run(vec![]);
        assert_eq!(t.output, vec![9]);
        let fp = s.fp(&t);
        let opt = s.opt(&t, &OptConfig::default());
        let dir = std::env::temp_dir().join("dynslice-core-test");
        std::fs::create_dir_all(&dir).unwrap();
        let lp = s.lp(&t, dir.join("t.bin")).unwrap();
        let c = Criterion::Output(0);
        let a = fp.slice(&c).unwrap();
        let b = opt.slice(&c).unwrap();
        let (l, stats) = lp.slice_detailed(c).unwrap().unwrap();
        assert_eq!(a.stmts, b.stmts);
        assert_eq!(a.stmts, l.stmts);
        assert!(stats.records_scanned > 0);
        assert!(matches!(
            fp.slice(&Criterion::Output(7)),
            Err(SliceError::UnknownCriterion)
        ));
    }

    #[test]
    fn pick_cells_is_even_and_deduped() {
        let cells: Vec<Cell> = (0..100u32).map(|i| Cell::new(0, i)).collect();
        let picked = pick_cells(cells.iter().copied().chain(cells.iter().copied()), 10);
        assert_eq!(picked.len(), 10);
        assert!(picked.windows(2).all(|w| w[0] < w[1]));
        let few = pick_cells((0..3u32).map(|i| Cell::new(0, i)), 10);
        assert_eq!(few.len(), 3);
    }
}
