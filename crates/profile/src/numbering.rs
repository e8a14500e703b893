//! Ball–Larus path numbering over one function's CFG.

use std::collections::HashMap;

use dynslice_ir::{BlockId, Cfg, Function};

/// Internal DAG node: real blocks plus a virtual entry and exit.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
enum Node {
    Entry,
    Block(u32),
    Exit,
}

#[derive(Copy, Clone, Debug)]
struct DagEdge {
    to: Node,
    /// Ball–Larus increment for traversing this edge.
    incr: u64,
    /// Real CFG target for `Entry -> v` pseudo edges (`None` for the edge to
    /// the function entry block itself — its target *is* real).
    _pseudo: bool,
}

/// One CFG successor of a block, as the path tracker reads it.
#[derive(Copy, Clone, Debug)]
struct Succ {
    to: u32,
    /// Whether the edge is a back edge (it completes the current path).
    is_back: bool,
    /// Ball–Larus increment of the edge (0 for back edges, which add their
    /// source's `back_out` instead).
    incr: u64,
}

/// Path numbering for one function.
///
/// Functions whose acyclic-path count exceeds [`BallLarus::MAX_PATHS`] are
/// marked [`BallLarus::overflowed`]; such functions are simply never
/// specialized (mirroring path-profiling practice of bounding counter
/// tables).
///
/// The tables the tracker reads on every block event are arrays indexed by
/// block id; only [`BallLarus::decode`], which runs once per specialized
/// path, walks the keyed DAG.
#[derive(Clone, Debug)]
pub struct BallLarus {
    /// Total number of distinct acyclic paths (valid ids are `0..num_paths`).
    pub num_paths: u64,
    /// Whether the path count exceeded [`BallLarus::MAX_PATHS`].
    pub overflowed: bool,
    /// Successors of block `b`: `succs[succ_start[b]..succ_start[b + 1]]`,
    /// in CFG order.
    succ_start: Vec<u32>,
    succs: Vec<Succ>,
    /// Per block: increment of the pseudo `b -> Exit` edge, applied when a
    /// back edge out of `b` completes a path.
    back_out: Vec<u64>,
    /// Per block: initial path-register value of a path starting at `b`
    /// after a back edge (increment of the pseudo `Entry -> b` edge).
    back_in: Vec<u64>,
    /// Per block: increment of a return block's edge to Exit.
    exit_incr: Vec<u64>,
    /// Adjacency used by `decode`: ordered out-edges per node.
    dag: HashMap<Node, Vec<DagEdge>>,
}

impl BallLarus {
    /// Functions with more acyclic paths than this are not numbered.
    pub const MAX_PATHS: u64 = 1 << 32;

    /// Numbers the acyclic paths of `f`.
    pub fn compute(cfg: &Cfg, f: &Function) -> Self {
        // Build the DAG in a topological order (RPO of the CFG works once
        // back edges are removed, because retreating edges are exactly the
        // back edges in our reducible CFGs).
        let mut dag: HashMap<Node, Vec<DagEdge>> = HashMap::new();
        let mut entry_targets: Vec<u32> = Vec::new(); // back-edge targets
        let mut exit_sources: Vec<u32> = Vec::new(); // back-edge sources
        for b in f.block_ids() {
            if !cfg.is_reachable(b) {
                continue;
            }
            let mut outs = Vec::new();
            for &s in cfg.succs(b) {
                if cfg.is_back_edge(b, s) {
                    if !entry_targets.contains(&s.0) {
                        entry_targets.push(s.0);
                    }
                    if !exit_sources.contains(&b.0) {
                        exit_sources.push(b.0);
                    }
                } else {
                    outs.push(DagEdge { to: Node::Block(s.0), incr: 0, _pseudo: false });
                }
            }
            if cfg.succs(b).is_empty() {
                // Return block: edge to Exit.
                outs.push(DagEdge { to: Node::Exit, incr: 0, _pseudo: false });
            }
            dag.insert(Node::Block(b.0), outs);
        }
        entry_targets.sort_unstable();
        exit_sources.sort_unstable();
        for &u in &exit_sources {
            dag.entry(Node::Block(u))
                .or_default()
                .push(DagEdge { to: Node::Exit, incr: 0, _pseudo: true });
        }
        let mut entry_outs =
            vec![DagEdge { to: Node::Block(0), incr: 0, _pseudo: false }];
        for &v in &entry_targets {
            entry_outs.push(DagEdge { to: Node::Block(v), incr: 0, _pseudo: true });
        }
        dag.insert(Node::Entry, entry_outs);
        dag.insert(Node::Exit, Vec::new());

        // numpaths by reverse topological order: process blocks in reverse
        // RPO (all DAG edges go forward in RPO), then Entry last.
        let mut numpaths: HashMap<Node, u64> = HashMap::new();
        numpaths.insert(Node::Exit, 1);
        let mut overflowed = false;
        let mut order: Vec<Node> =
            cfg.rpo().iter().rev().map(|b| Node::Block(b.0)).collect();
        order.push(Node::Entry);
        for node in order {
            let mut total: u64 = 0;
            let edges = dag.get_mut(&node).expect("node in dag");
            for e in edges.iter_mut() {
                e.incr = total;
                let t = numpaths.get(&e.to).copied().unwrap_or(0);
                total = total.saturating_add(t);
            }
            if total == 0 {
                total = 1; // degenerate: no path to exit (unreachable)
            }
            if total > Self::MAX_PATHS {
                overflowed = true;
            }
            numpaths.insert(node, total);
        }
        let num_paths = numpaths[&Node::Entry];

        // Extract the runtime increment tables.
        let n = f.blocks.len();
        let mut back_out = vec![0; n];
        let mut back_in = vec![0; n];
        let mut exit_incr = vec![0; n];
        for (node, edges) in &dag {
            for e in edges {
                match (*node, e.to, e._pseudo) {
                    (Node::Block(u), Node::Exit, true) => back_out[u as usize] = e.incr,
                    (Node::Block(u), Node::Exit, false) => exit_incr[u as usize] = e.incr,
                    (Node::Entry, Node::Block(v), true) => back_in[v as usize] = e.incr,
                    _ => {}
                }
            }
        }
        let mut succ_start = Vec::with_capacity(n + 1);
        let mut succs: Vec<Succ> = Vec::new();
        for b in f.block_ids() {
            succ_start.push(succs.len() as u32);
            let outs = dag.get(&Node::Block(b.0)).map_or(&[][..], Vec::as_slice);
            for &s in cfg.succs(b) {
                let incr = outs
                    .iter()
                    .find(|e| !e._pseudo && e.to == Node::Block(s.0))
                    .map_or(0, |e| e.incr);
                succs.push(Succ { to: s.0, is_back: cfg.is_back_edge(b, s), incr });
            }
        }
        succ_start.push(succs.len() as u32);

        Self { num_paths, overflowed, succ_start, succs, back_out, back_in, exit_incr, dag }
    }

    /// The table entry of CFG edge `(from, to)`, if it is one.
    #[inline]
    fn edge(&self, from: BlockId, to: BlockId) -> Option<&Succ> {
        let lo = *self.succ_start.get(from.index())? as usize;
        let hi = self.succ_start[from.index() + 1] as usize;
        self.succs[lo..hi].iter().find(|e| e.to == to.0)
    }

    /// Whether CFG edge `(from, to)` is a back edge.
    pub fn is_back_edge(&self, from: BlockId, to: BlockId) -> bool {
        self.edge(from, to).is_some_and(|e| e.is_back)
    }

    /// Starts tracking a path beginning at `first`. At activation entry
    /// `first` is the function entry block (register 0); when resuming from
    /// a decoded path that begins at a back-edge target, the register starts
    /// at that target's `Entry -> v` pseudo-edge increment.
    pub fn start(&self, first: BlockId) -> PathTracker {
        let register = if first.0 == 0 { 0 } else { self.back_in[first.index()] };
        PathTracker { register }
    }

    /// Advances the tracker across CFG edge `(from, to)`.
    ///
    /// Returns the completed path when the edge is a back edge (the new
    /// path starting at `to` is tracked automatically).
    #[inline]
    pub fn step(&self, t: &mut PathTracker, from: BlockId, to: BlockId) -> Option<CompletedPath> {
        match self.edge(from, to) {
            Some(e) if e.is_back => {
                let id = t.register + self.back_out[from.index()];
                t.register = self.back_in[to.index()];
                Some(CompletedPath { id })
            }
            e => {
                t.register += e.map_or(0, |e| e.incr);
                None
            }
        }
    }

    /// Completes the final path of an activation at return block `last`.
    pub fn finish(&self, t: PathTracker, last: BlockId) -> CompletedPath {
        CompletedPath { id: t.register + self.exit_incr[last.index()] }
    }

    /// Recovers the block sequence of path `id`.
    ///
    /// # Panics
    /// Panics if `id >= num_paths` or the numbering overflowed.
    pub fn decode(&self, id: u64) -> Vec<BlockId> {
        assert!(!self.overflowed, "path numbering overflowed; ids are not unique");
        assert!(id < self.num_paths, "path id {id} out of range {}", self.num_paths);
        let mut rest = id;
        let mut node = Node::Entry;
        let mut blocks = Vec::new();
        loop {
            if node == Node::Exit {
                return blocks;
            }
            if let Node::Block(b) = node {
                blocks.push(BlockId(b));
            }
            let edges = &self.dag[&node];
            // Choose the out-edge whose [incr, incr + numpaths(to)) range
            // contains `rest`.
            let mut chosen = None;
            for e in edges.iter().rev() {
                if e.incr <= rest {
                    chosen = Some(e);
                    break;
                }
            }
            let e = chosen.expect("path id decodes");
            rest -= e.incr;
            node = e.to;
        }
    }
}

/// Per-activation path-register state.
#[derive(Copy, Clone, Debug)]
pub struct PathTracker {
    register: u64,
}

/// A completed Ball–Larus path. Its blocks are [`BallLarus::decode`] of
/// its id.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CompletedPath {
    /// The Ball–Larus path id.
    pub id: u64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynslice_lang::compile;

    fn bl_for(src: &str) -> (dynslice_ir::Program, Cfg, BallLarus) {
        let p = compile(src).expect("compiles");
        let cfg = Cfg::new(p.func(p.main));
        let bl = BallLarus::compute(&cfg, p.func(p.main));
        (p, cfg, bl)
    }

    #[test]
    fn straight_line_has_one_path() {
        let (_, _, bl) = bl_for("fn main() { print 1; print 2; }");
        assert_eq!(bl.num_paths, 1);
        assert_eq!(bl.decode(0), vec![BlockId(0)]);
    }

    #[test]
    fn diamond_has_two_paths() {
        let (_, _, bl) = bl_for(
            "fn main() { int x = input(); if (x) { print 1; } else { print 2; } print 3; }",
        );
        assert_eq!(bl.num_paths, 2);
        let p0 = bl.decode(0);
        let p1 = bl.decode(1);
        assert_ne!(p0, p1);
        assert_eq!(p0.len(), 3);
        assert_eq!(p1.len(), 3);
        assert_eq!(p0[0], BlockId(0));
    }

    #[test]
    fn loop_paths_split_at_back_edge() {
        // entry -> header; header -> body | exit; body -> header.
        let (_, _, bl) = bl_for("fn main() { int i = 0; while (i < 3) { i = i + 1; } }");
        // Paths: [entry,header,body] (ends at back edge),
        //        [entry,header,exit],
        //        [header,body] (starts after back edge),
        //        [header,exit].
        assert_eq!(bl.num_paths, 4);
        let all: Vec<Vec<BlockId>> = (0..4).map(|i| bl.decode(i)).collect();
        assert!(all.iter().all(|p| !p.is_empty()));
        // Exactly two paths start at the loop header (the back-edge target).
        let header_starts = all.iter().filter(|p| p[0] != BlockId(0)).count();
        assert_eq!(header_starts, 2);
    }

    #[test]
    fn tracker_ids_match_decode() {
        let (_, cfg, bl) = bl_for(
            "fn main() {
               int i = 0;
               while (i < 4) {
                 if (i % 2) { print 1; } else { print 2; }
                 i = i + 1;
               }
             }",
        );
        // Enumerate every decoded path and re-run it through the tracker,
        // collecting the blocks it covers: the completed id round-trips
        // and decodes to exactly those blocks.
        for id in 0..bl.num_paths {
            let blocks = bl.decode(id);
            let mut t = bl.start(blocks[0]);
            let mut covered = vec![blocks[0]];
            // The decoded path never contains a back edge internally.
            let mut completed = None;
            for w in blocks.windows(2) {
                assert!(bl.step(&mut t, w[0], w[1]).is_none());
                covered.push(w[1]);
            }
            let last = *blocks.last().unwrap();
            // Terminate: either the last block returns, or the path ended
            // because its last block takes a back edge at runtime. Detect by
            // whether the last block has successors.
            if cfg.succs(last).is_empty() {
                completed = Some(bl.finish(t, last));
            } else {
                // Take the back edge out of `last` if one exists.
                for &s in cfg.succs(last) {
                    if bl.is_back_edge(last, s) {
                        completed = bl.step(&mut t, last, s);
                        break;
                    }
                }
            }
            if let Some(c) = completed {
                assert_eq!(c.id, id, "id round-trip for path {id} ({blocks:?})");
                assert_eq!(bl.decode(c.id), covered);
            }
        }
    }

    #[test]
    fn trace_partitions_into_paths() {
        // Manually walk a plausible trace of the loop and check the tracker
        // produces contiguous, non-overlapping paths covering the trace,
        // each decoding to the blocks it covered.
        let (_, cfg, bl) = bl_for("fn main() { int i = 0; while (i < 2) { i = i + 1; } }");
        // Trace: bb0 -> header -> body -> header -> body -> header -> exit.
        let header = cfg.succs(BlockId(0))[0];
        let body = cfg.succs(header)[0];
        let exit = cfg.succs(header)[1];
        let trace = [BlockId(0), header, body, header, body, header, exit];
        let mut t = bl.start(trace[0]);
        let mut current = vec![trace[0]];
        let mut covered = Vec::new();
        let mut paths = 0;
        for w in trace.windows(2) {
            if let Some(c) = bl.step(&mut t, w[0], w[1]) {
                assert_eq!(bl.decode(c.id), current);
                covered.append(&mut current);
                paths += 1;
            }
            current.push(w[1]);
        }
        let fin = bl.finish(t, *trace.last().unwrap());
        assert_eq!(bl.decode(fin.id), current);
        covered.append(&mut current);
        assert_eq!(covered, trace.to_vec(), "paths exactly cover the trace");
        assert_eq!(paths, 2, "one path ends at each back edge");
    }

    #[test]
    fn calls_do_not_end_paths() {
        // A call inside a block is invisible to intra-procedural paths.
        let (_, _, bl) = bl_for(
            "fn f() -> int { return 1; }
             fn main() { int x = f(); print x; }",
        );
        assert_eq!(bl.num_paths, 1);
    }

    #[test]
    fn all_ids_decode_uniquely() {
        let (_, _, bl) = bl_for(
            "fn main() {
               int x = input();
               if (x) { print 1; } else { print 2; }
               if (x > 2) { print 3; } else { print 4; }
             }",
        );
        assert_eq!(bl.num_paths, 4);
        let mut seen = std::collections::HashSet::new();
        for id in 0..bl.num_paths {
            assert!(seen.insert(bl.decode(id)), "duplicate path for id {id}");
        }
    }
}
