//! The three dynamic slicing algorithms of *Cost Effective Dynamic Program
//! Slicing* (PLDI 2004), behind one interface:
//!
//! * **FP** — traditional full-graph slicing ([`FpSlicer`]): build the
//!   complete dyDG in memory, traverse backward.
//! * **OPT** — the paper's contribution ([`OptSlicer`]): compacted dyDG with
//!   inferred timestamps, specialized path nodes and shortcut edges.
//! * **LP** — the authors' earlier demand-driven algorithm ([`LpSlicer`]):
//!   the trace lives on disk as a record stream with per-chunk summaries;
//!   each slice re-traverses the trace backward, skipping chunks the
//!   summaries prove irrelevant.
//!
//! All three produce identical slices ([`Slice`]); the cross-algorithm
//! equivalence is property-tested in the workspace integration suite.

pub mod batch;
pub mod forward;
pub mod lp;
pub mod slicer;

pub use batch::{slice_batch, BatchConfig, BatchResult, BatchSliceEngine, BatchStats, WorkerStats};
pub use forward::ForwardSlicer;
pub use lp::{LpSlicer, LpStats, DEFAULT_MAX_PASSES};
pub use slicer::{SliceError, SliceStats, Slicer};

use std::collections::BTreeSet;

use dynslice_analysis::ProgramAnalysis;
use dynslice_graph::{build_compact, CompactGraph, FullGraph, OptConfig};
use dynslice_ir::{Program, StmtId};
use dynslice_runtime::{Cell, TraceEvent};

/// What to slice on.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum Criterion {
    /// The last definition of a memory cell (the paper slices on memory
    /// addresses).
    CellLastDef(Cell),
    /// The `k`-th executed print statement (0-based).
    Output(usize),
}

/// A dynamic slice: the set of statements whose execution instances
/// transitively influenced the criterion.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Slice {
    /// Statements in the slice.
    pub stmts: BTreeSet<StmtId>,
}

impl Slice {
    /// Number of statements in the slice (the paper's *SS* measure averages
    /// this across queries).
    pub fn len(&self) -> usize {
        self.stmts.len()
    }

    /// Whether the slice is empty (criterion never executed).
    pub fn is_empty(&self) -> bool {
        self.stmts.is_empty()
    }
}

/// FP slicing: the full dependence graph, built once, traversed per query.
///
/// Borrows the program it was built from, so [`Slicer::slice_with_stats`]
/// needs only the criterion — the same signature as every other backend.
#[derive(Debug)]
pub struct FpSlicer<'p> {
    program: &'p Program,
    graph: FullGraph,
}

impl<'p> FpSlicer<'p> {
    /// Builds the full graph (the FP preprocessing step).
    pub fn build(program: &'p Program, analysis: &ProgramAnalysis, events: &[TraceEvent]) -> Self {
        Self { program, graph: FullGraph::build(program, analysis, events) }
    }

    /// Access to the underlying graph (sizes, statistics).
    pub fn graph(&self) -> &FullGraph {
        &self.graph
    }
}

impl Slicer for FpSlicer<'_> {
    fn name(&self) -> &'static str {
        "fp"
    }

    fn slice_with_stats(&self, criterion: &Criterion) -> Result<(Slice, SliceStats), SliceError> {
        let (s, ts) = match criterion {
            Criterion::CellLastDef(c) => self.graph.last_def.get(c).copied(),
            Criterion::Output(k) => self.graph.outputs.get(*k).copied(),
        }
        .ok_or(SliceError::UnknownCriterion)?;
        let stmts = self.graph.slice(self.program, s, ts);
        Ok((Slice { stmts }, SliceStats::default()))
    }
}

/// OPT slicing: the compacted graph with optional shortcut traversal.
#[derive(Debug)]
pub struct OptSlicer {
    graph: CompactGraph,
    /// Whether queries traverse shortcut edges (the paper's default).
    pub shortcuts: bool,
}

impl OptSlicer {
    /// Builds the compacted graph (the OPT preprocessing step).
    pub fn build(
        program: &Program,
        analysis: &ProgramAnalysis,
        events: &[TraceEvent],
        config: &OptConfig,
    ) -> Self {
        Self { graph: build_compact(program, analysis, events, config), shortcuts: true }
    }

    /// Wraps an already-built compacted graph.
    pub fn from_graph(graph: CompactGraph) -> Self {
        Self { graph, shortcuts: true }
    }

    /// Access to the underlying graph (sizes, statistics).
    pub fn graph(&self) -> &CompactGraph {
        &self.graph
    }

    /// A parallel batch engine over this slicer, honoring its shortcut
    /// setting (see [`batch::BatchSliceEngine`]).
    pub fn batch(&self, config: BatchConfig) -> BatchSliceEngine<'_> {
        BatchSliceEngine::new(self, config)
    }
}

impl Slicer for OptSlicer {
    fn name(&self) -> &'static str {
        "opt"
    }

    fn slice_with_stats(&self, criterion: &Criterion) -> Result<(Slice, SliceStats), SliceError> {
        let (occ, ts) = match criterion {
            Criterion::CellLastDef(c) => self.graph.last_def_of(*c),
            Criterion::Output(k) => self.graph.outputs.get(*k).copied(),
        }
        .ok_or(SliceError::UnknownCriterion)?;
        let (stmts, t) = self.graph.slice_with_stats(occ, ts, self.shortcuts);
        Ok((Slice { stmts }, t.into()))
    }
}

// The graph's Send + Sync audit lives in `dynslice-graph`; assert here that
// the sequential slicers stay shareable too, so a batch engine, the slice
// server, and plain queries can coexist on one backend across threads.
// (`Slicer: Sync` enforces this per-impl; the explicit list documents it.)
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OptSlicer>();
    assert_send_sync::<FpSlicer<'static>>();
    assert_send_sync::<ForwardSlicer>();
    assert_send_sync::<Criterion>();
    assert_send_sync::<Slice>();
};
