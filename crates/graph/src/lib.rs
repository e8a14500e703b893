//! Dynamic dependence graph representations for *Cost Effective Dynamic
//! Program Slicing* (PLDI 2004).
//!
//! Two representations of the same dependence information:
//!
//! * [`FullGraph`] — the paper's FP baseline: every exercised dependence
//!   instance stored as an explicit timestamp pair on an edge.
//! * [`CompactGraph`] — the paper's OPT representation: a static component
//!   ([`NodeGraph`], with specialized path nodes and static unlabeled edges)
//!   plus dynamic labels only for the instances whose timestamps cannot be
//!   inferred. The label-sharing plan and the node lookup tables that the
//!   build reads ([`BuildPlan`]) are dropped once the graph is built.
//!
//! The central property, exercised heavily by the test suite: **slices
//! computed from the two graphs are identical** — compaction is lossless.

pub mod compact;
pub mod dot;
mod fast_hash;
pub mod full;
pub mod nodes;
pub mod paged;
pub mod segment;
pub mod size;
pub mod snapshot;

pub use compact::{CompactGraph, DynEdge, EdgeRow, TraversalStats};
pub use dot::{compact_to_dot, slice_to_dot};
pub use paged::{PagedGraph, PagedStats};
pub use full::FullGraph;
pub use nodes::{
    BuildPlan, CdRes, NodeGraph, NodeKind, OptConfig, SpecPlan, SpecPolicy, UseRes, UseRows,
};
pub use segment::{segment, Assign};
pub use size::{BuildStats, GraphSize, OptKind};
pub use snapshot::{Snapshot, SnapshotError};

use dynslice_analysis::ProgramAnalysis;
use dynslice_ir::Program;
use dynslice_profile::{PathProfile, ProgramPaths};
use dynslice_runtime::TraceEvent;

// Compile-time Send + Sync audit: the batch slice engine
// (`dynslice-slicing`) shares one graph by reference across scoped worker
// threads, so the dependence representations must never regrow
// single-threaded interior mutability (`Rc`/`RefCell` — the shortcut memo
// used to be one, and `PagedGraph`'s block cache another before it moved
// to sharded mutexes + atomics).
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<CompactGraph>();
    assert_send_sync::<FullGraph>();
    assert_send_sync::<NodeGraph>();
    assert_send_sync::<PagedGraph>();
    assert_send_sync::<PagedStats>();
    assert_send_sync::<TraversalStats>();
};

/// Convenience: profiles a trace (counts each completed Ball–Larus path) —
/// the paper's profiling run, applied to a training trace.
pub fn profile_trace(paths: &ProgramPaths, events: &[TraceEvent]) -> PathProfile {
    use dynslice_profile::PathTracker;
    use dynslice_runtime::FrameId;

    let mut profile = PathProfile::new();
    struct St {
        frame: FrameId,
        func: dynslice_ir::FuncId,
        tracker: Option<PathTracker>,
        prev: Option<dynslice_ir::BlockId>,
    }
    // The activation stack, innermost last: block events and exits always
    // name the innermost activation.
    let mut frames: Vec<St> = Vec::new();
    for ev in events {
        match *ev {
            TraceEvent::FrameEnter { frame, func, .. } => {
                frames.push(St { frame, func, tracker: None, prev: None });
            }
            TraceEvent::Block { frame, block } => {
                let st = frames.last_mut().expect("live frame");
                assert!(st.frame == frame, "block event for a non-innermost frame");
                let bl = paths.func(st.func);
                match (&mut st.tracker, st.prev) {
                    (t @ None, _) => *t = Some(bl.start(block)),
                    (Some(tracker), Some(prev)) => {
                        if let Some(done) = bl.step(tracker, prev, block) {
                            profile.record(st.func, done.id);
                        }
                    }
                    _ => unreachable!(),
                }
                st.prev = Some(block);
            }
            TraceEvent::FrameExit { frame } => {
                let st = frames.pop().expect("live frame");
                assert!(st.frame == frame, "exit for a non-innermost frame");
                if let (Some(t), Some(prev)) = (st.tracker, st.prev) {
                    let done = paths.func(st.func).finish(t, prev);
                    profile.record(st.func, done.id);
                }
            }
            TraceEvent::Addr(_) => {}
        }
    }
    profile
}

/// Builds the compacted graph end to end with the given configuration,
/// self-profiling on the same trace (benches use a separate training run).
pub fn build_compact(
    program: &Program,
    analysis: &ProgramAnalysis,
    events: &[TraceEvent],
    config: &OptConfig,
) -> CompactGraph {
    let paths = ProgramPaths::compute(program);
    let profile = profile_trace(&paths, events);
    let spec = SpecPlan::new(program, &paths, Some(&profile), &config.spec);
    let (nodes, plan) = NodeGraph::build(program, analysis, &spec, config);
    CompactGraph::build(program, analysis, &paths, nodes, plan, events)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynslice_runtime::{run, VmOptions};
    use std::collections::BTreeSet;

    fn setup(src: &str, input: Vec<i64>) -> (Program, ProgramAnalysis, dynslice_runtime::Trace) {
        let p = dynslice_lang::compile(src).expect("compiles");
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions { input, ..Default::default() });
        (p, a, t)
    }

    /// FP and OPT slices must agree for every traced cell and both
    /// traversal modes (with and without shortcuts).
    fn assert_equivalent(src: &str, input: Vec<i64>, config: &OptConfig) {
        let (p, a, t) = setup(src, input);
        let full = FullGraph::build(&p, &a, &t.events);
        let opt = build_compact(&p, &a, &t.events, config);
        let mut cells: Vec<_> = full.last_def.keys().copied().collect();
        cells.sort();
        assert_eq!(
            full.last_def.len(),
            opt.last_def.len(),
            "builders disagree on defined cells"
        );
        for cell in cells {
            let (fs, fts) = full.last_def[&cell];
            let fp_slice = full.slice(&p, fs, fts);
            let (oocc, ots) = opt.last_def_of(cell).expect("cell defined in OPT too");
            assert_eq!(opt.stmt_of(oocc), fs, "last-def statement for {cell:?}");
            let opt_slice = opt.slice(oocc, ots, false);
            assert_eq!(fp_slice, opt_slice, "plain OPT slice for {cell:?}\n{src}");
            let opt_fast = opt.slice(oocc, ots, true);
            assert_eq!(fp_slice, opt_fast, "shortcut OPT slice for {cell:?}\n{src}");
        }
        // Output (print) criteria as well.
        for (i, &(fs, fts)) in full.outputs.iter().enumerate() {
            let (oocc, ots) = opt.outputs[i];
            assert_eq!(opt.stmt_of(oocc), fs);
            assert_eq!(
                full.slice(&p, fs, fts),
                opt.slice(oocc, ots, true),
                "output slice {i}"
            );
        }
    }

    fn all_configs() -> Vec<OptConfig> {
        vec![
            OptConfig::default(),
            OptConfig::none(),
            OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
            OptConfig { use_use: false, ..OptConfig::default() },
            OptConfig { share_data: false, share_cd: false, ..OptConfig::default() },
            OptConfig { cd_delta: false, ..OptConfig::default() },
        ]
    }

    #[test]
    fn equivalence_straight_line() {
        for c in all_configs() {
            assert_equivalent(
                "global int a[2];
                 fn main() { a[0] = 3; a[1] = a[0] + 1; print a[1]; }",
                vec![],
                &c,
            );
        }
    }

    #[test]
    fn equivalence_branches_and_loops() {
        for c in all_configs() {
            assert_equivalent(
                "global int a[8];
                 fn main() {
                   int i;
                   int s = 0;
                   for (i = 0; i < 8; i = i + 1) {
                     if (i % 3 == 0) { a[i] = i; } else { a[i] = s; }
                     s = s + a[i];
                   }
                   print s;
                   a[0] = s;
                 }",
                vec![],
                &c,
            );
        }
    }

    #[test]
    fn equivalence_aliasing() {
        // The paper's Fig. 3 shape: may-aliased stores through pointers.
        for c in all_configs() {
            assert_equivalent(
                "global int x[2];
                 global int y[2];
                 fn main() {
                   int i;
                   for (i = 0; i < 6; i = i + 1) {
                     ptr p = &x[0];
                     if (input()) { p = &y[0]; }
                     *p = i;
                     x[1] = x[0] + y[0];
                   }
                   print x[1];
                 }",
                vec![0, 1, 1, 0, 1, 0],
                &c,
            );
        }
    }

    #[test]
    fn equivalence_calls_and_recursion() {
        for c in all_configs() {
            assert_equivalent(
                "global int depth[1];
                 fn fib(int n) -> int {
                   depth[0] = depth[0] + 1;
                   if (n < 2) { return n; }
                   return fib(n - 1) + fib(n - 2);
                 }
                 fn main() { print fib(7); print depth[0]; depth[0] = 0; }",
                vec![],
                &c,
            );
        }
    }

    #[test]
    fn equivalence_heap_and_local_arrays() {
        for c in all_configs() {
            assert_equivalent(
                "fn sum(ptr p, int n) -> int {
                   int s = 0;
                   int i;
                   for (i = 0; i < n; i = i + 1) { s = s + *(p + i); }
                   return s;
                 }
                 fn main() {
                   ptr buf = alloc(5);
                   int i;
                   for (i = 0; i < 5; i = i + 1) { *(buf + i) = i * input(); }
                   int local[3];
                   local[0] = sum(buf, 5);
                   local[1] = local[0] * 2;
                   print local[1];
                 }",
                vec![2, 3, 1, 5, 4],
                &c,
            );
        }
    }

    #[test]
    fn compaction_reduces_pairs() {
        let (p, a, t) = setup(
            "global int a[16];
             fn main() {
               int i;
               int s = 0;
               for (i = 0; i < 200; i = i + 1) {
                 int k = i % 16;
                 a[k] = a[k] + i;
                 s = s + a[k];
               }
               print s;
             }",
            vec![],
        );
        let full = FullGraph::build(&p, &a, &t.events);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let full_pairs = full.size().pairs;
        let opt_pairs = opt.size(false).pairs;
        assert!(
            (opt_pairs as f64) < 0.35 * full_pairs as f64,
            "expected strong pair elimination: {opt_pairs} vs {full_pairs}"
        );
        // The explicit fraction drives the paper's headline claim.
        assert!(opt.stats.explicit_fraction() < 0.35, "{}", opt.stats.explicit_fraction());
        // And the unoptimized compact config stores as many pairs as FP.
        let base = build_compact(&p, &a, &t.events, &OptConfig::none());
        assert_eq!(base.size(false).pairs, full_pairs);
    }

    #[test]
    fn specialization_collapses_hot_loop_labels() {
        let src = "global int a[4];
             fn main() {
               int i;
               for (i = 0; i < 100; i = i + 1) { a[i % 4] = a[i % 4] + 1; }
               print a[0];
             }";
        let (p, a, t) = setup(src, vec![]);
        let spec = build_compact(&p, &a, &t.events, &OptConfig::default());
        let nospec =
            build_compact(&p, &a, &t.events, &OptConfig { spec: SpecPolicy::None, ..OptConfig::default() });
        assert!(
            spec.size(false).pairs < nospec.size(false).pairs,
            "specialization should remove labels: {} vs {}",
            spec.size(false).pairs,
            nospec.size(false).pairs
        );
        // Path nodes exist.
        assert!(spec.nodes.nodes.iter().any(|n| matches!(n.kind, NodeKind::Path(_))));
    }

    #[test]
    fn slice_contents_are_meaningful() {
        // The slice of the final print must include the loop increment and
        // condition but not the unrelated computation.
        let (p, a, t) = setup(
            "global int a[1];
             global int unrelated[1];
             fn main() {
               int i;
               int s = 0;
               for (i = 0; i < 5; i = i + 1) { s = s + i; }
               unrelated[0] = 99;
               a[0] = s;
               print a[0];
             }",
            vec![],
        );
        let full = FullGraph::build(&p, &a, &t.events);
        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        let (fs, fts) = full.outputs[0];
        let slice = full.slice(&p, fs, fts);
        let (oocc, ots) = opt.outputs[0];
        assert_eq!(slice, opt.slice(oocc, ots, true));
        // The statement storing 99 must not be in the slice.
        let unrelated_store: BTreeSet<_> = p
            .all_blocks()
            .flat_map(|(_, _, bb)| bb.stmts.iter())
            .filter(|s| matches!(&s.kind, dynslice_ir::StmtKind::Store { value: dynslice_ir::Operand::Const(99), .. }))
            .map(|s| s.id)
            .collect();
        assert_eq!(unrelated_store.len(), 1);
        assert!(slice.is_disjoint(&unrelated_store), "unrelated store leaked into slice");
        // The loop increment is in the slice (s depends on i).
        assert!(slice.len() >= 6);
    }
}
