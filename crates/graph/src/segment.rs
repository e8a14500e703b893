//! Trace segmentation: assigns every traced block execution to a graph node.
//!
//! This is the role the paper's *find-and-update tree* plays (Fig. 12): the
//! online builder must buffer block traces until it knows whether a
//! specialized path executed. Because every dynamic trace of a function
//! partitions exactly into Ball–Larus paths, segmentation reduces to running
//! the BL path tracker per activation: at each back edge or return the
//! buffered blocks form a complete path whose id decides whether they map to
//! a specialized path node or to individual block nodes.

use dynslice_ir::{BlockId, FuncId};
use dynslice_profile::{PathTracker, ProgramPaths};
use dynslice_runtime::{FrameId, TraceEvent};

use crate::nodes::BuildPlan;

/// Node assignment of one traced block execution.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct Assign {
    /// The graph node the block execution belongs to.
    pub node: u32,
    /// Which slot of the node this block execution fills.
    pub slot: u32,
    /// Whether this block execution starts a new node execution (and hence
    /// a new timestamp).
    pub start: bool,
}

/// Segmentation state of one live activation.
struct FrameSeg {
    frame: FrameId,
    func: FuncId,
    tracker: Option<PathTracker>,
    prev: Option<BlockId>,
    /// `(block-event ordinal, block)` buffered since the current path began.
    buffered: Vec<(u32, BlockId)>,
}

/// Computes the node assignment for every `Block` event in `events`, in
/// event order, from the node lookup tables of the build's `plan`.
pub fn segment(paths: &ProgramPaths, plan: &BuildPlan, events: &[TraceEvent]) -> Vec<Assign> {
    let num_blocks = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::Block { .. }))
        .count();
    let mut assigns = vec![Assign { node: 0, slot: 0, start: true }; num_blocks];
    // The activation stack, innermost last: block events and exits always
    // name the innermost activation.
    let mut frames: Vec<FrameSeg> = Vec::new();
    // Buffers of exited activations, for the next ones entered.
    let mut spare: Vec<Vec<(u32, BlockId)>> = Vec::new();
    let mut ordinal = 0u32;

    let flush = |plan: &BuildPlan,
                     func: FuncId,
                     path_id: Option<u64>,
                     buffered: &[(u32, BlockId)],
                     assigns: &mut Vec<Assign>| {
        let path_node = path_id.and_then(|id| plan.path_node.get(&(func.0, id)).copied());
        match path_node {
            Some(node) => {
                debug_assert_eq!(
                    plan.slot_offsets[node as usize].len(),
                    buffered.len(),
                    "specialized path length disagrees with the trace segment"
                );
                for (slot, &(ord, _)) in buffered.iter().enumerate() {
                    assigns[ord as usize] =
                        Assign { node, slot: slot as u32, start: slot == 0 };
                }
            }
            None => {
                for &(ord, block) in buffered {
                    let node = plan.block_node[func.index()][block.index()];
                    assigns[ord as usize] = Assign { node, slot: 0, start: true };
                }
            }
        }
    };

    for ev in events {
        match *ev {
            TraceEvent::FrameEnter { frame, func, .. } => {
                frames.push(FrameSeg {
                    frame,
                    func,
                    tracker: None,
                    prev: None,
                    buffered: spare.pop().unwrap_or_default(),
                });
            }
            TraceEvent::Block { frame, block } => {
                let ord = ordinal;
                ordinal += 1;
                let seg = frames.last_mut().expect("block for live frame");
                assert!(seg.frame == frame, "block event for a non-innermost frame");
                let bl = paths.func(seg.func);
                match (&mut seg.tracker, seg.prev) {
                    (t @ None, _) => {
                        *t = Some(bl.start(block));
                        seg.buffered.push((ord, block));
                    }
                    (Some(tracker), Some(prev)) => {
                        if let Some(done) = bl.step(tracker, prev, block) {
                            flush(plan, seg.func, Some(done.id), &seg.buffered, &mut assigns);
                            seg.buffered.clear();
                        }
                        seg.buffered.push((ord, block));
                    }
                    (Some(_), None) => unreachable!("tracker without a previous block"),
                }
                seg.prev = Some(block);
            }
            TraceEvent::FrameExit { frame } => {
                let mut seg = frames.pop().expect("exit for live frame");
                assert!(seg.frame == frame, "exit for a non-innermost frame");
                if let (Some(tracker), Some(prev)) = (seg.tracker, seg.prev) {
                    let bl = paths.func(seg.func);
                    let done = bl.finish(tracker, prev);
                    flush(plan, seg.func, Some(done.id), &seg.buffered, &mut assigns);
                }
                seg.buffered.clear();
                spare.push(seg.buffered);
            }
            TraceEvent::Addr(_) => {}
        }
    }
    // Truncated traces: frames that never exited flush their incomplete
    // paths as individual block nodes.
    for seg in frames {
        flush(plan, seg.func, None, &seg.buffered, &mut assigns);
    }
    assigns
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::{NodeGraph, NodeKind, OptConfig, SpecPlan, SpecPolicy};
    use dynslice_analysis::ProgramAnalysis;
    use dynslice_runtime::{run, VmOptions};

    fn setup(src: &str, policy: SpecPolicy) -> (Vec<Assign>, NodeGraph, Vec<TraceEvent>) {
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let paths = ProgramPaths::compute(&p);
        let t = run(&p, VmOptions::default());
        let profile = crate::profile_trace(&paths, &t.events);
        let plan = SpecPlan::new(&p, &paths, Some(&profile), &policy);
        let cfg = OptConfig { spec: policy, ..OptConfig::default() };
        let (ng, build) = NodeGraph::build(&p, &a, &plan, &cfg);
        let assigns = segment(&paths, &build, &t.events);
        (assigns, ng, t.events)
    }

    #[test]
    fn without_specialization_every_block_is_its_own_node() {
        let (assigns, ng, events) = setup(
            "fn main() { int i = 0; while (i < 5) { i = i + 1; } print i; }",
            SpecPolicy::None,
        );
        let blocks = events
            .iter()
            .filter(|e| matches!(e, TraceEvent::Block { .. }))
            .count();
        assert_eq!(assigns.len(), blocks);
        for a in &assigns {
            assert!(a.start, "block nodes always start a node execution");
            assert_eq!(a.slot, 0);
            assert!(matches!(ng.nodes[a.node as usize].kind, NodeKind::Block(_)));
        }
    }

    #[test]
    fn hot_loop_iterations_map_to_path_nodes() {
        let (assigns, ng, _) = setup(
            "fn main() { int i = 0; while (i < 10) { i = i + 1; } print i; }",
            SpecPolicy::HotPaths,
        );
        // The per-iteration path [header, body] must appear as a path node
        // with slot 0 starting and slot 1 continuing.
        let path_assigns: Vec<_> = assigns
            .iter()
            .filter(|a| matches!(ng.nodes[a.node as usize].kind, NodeKind::Path(_)))
            .collect();
        assert!(path_assigns.len() >= 10, "hot loop should run on path nodes");
        assert!(path_assigns.iter().any(|a| a.slot == 0 && a.start));
        assert!(path_assigns.iter().any(|a| a.slot == 1 && !a.start));
    }

    #[test]
    fn slots_follow_path_block_order() {
        let (assigns, ng, events) = setup(
            "fn main() { int i = 0; while (i < 6) { i = i + 2; } print i; }",
            SpecPolicy::HotPaths,
        );
        let blocks: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                TraceEvent::Block { block, .. } => Some(*block),
                _ => None,
            })
            .collect();
        for (a, b) in assigns.iter().zip(&blocks) {
            let node = &ng.nodes[a.node as usize];
            assert_eq!(node.blocks[a.slot as usize], *b, "slot/block mismatch");
        }
    }
}
