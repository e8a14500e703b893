//! Parallel segmented construction of the compacted dyDG.
//!
//! The sequential builder ([`CompactGraph::build`]) is a single replay pass
//! whose shadow maps (scalar/memory/control frontiers) thread through the
//! whole trace. This module cuts the trace at block-event boundaries into
//! segments, replays the segments concurrently, and then *stitches* the
//! per-segment results back together — producing a graph **bit-identical**
//! to the sequential build (same channels in the same order, same dynamic
//! edge lists, same statistics).
//!
//! # How the cut works
//!
//! A cut always falls immediately before a `Block` trace event. Three facts
//! make that boundary tractable:
//!
//! 1. **Timestamps are plannable.** Node-execution timestamps are assigned
//!    in block-event order by the segmentation ([`segment`]), so a cheap
//!    sequential *planning* prepass (no shadow maps, no hashing) can
//!    compute each segment's starting timestamp, occurrence bases and
//!    pending-call state exactly.
//! 2. **Return values never cross a cut.** A `Return` terminator, its
//!    `FrameExit` and the caller's resumption are processed while handling
//!    adjacent non-`Block` events, so the `ret`/`last_ret` shuttle is
//!    always segment-local.
//! 3. **Shadow-map misses are monotone.** Per-segment shadow maps start
//!    empty; a lookup that misses locally proves no in-segment definition
//!    preceded it, so the correct value is whatever the *frontier* (the
//!    merged final maps of all earlier segments) holds at the segment's
//!    start. Such lookups are *deferred* into the segment's event log.
//!
//! Each segment therefore replays independently, resolving what it can
//! against local maps, counting order-insensitive statistics locally, and
//! logging — in execution order — every action that needs global state:
//! deferred lookups, dynamic timestamp pairs, and memory-use memo traffic.
//! The stitcher walks the logs in segment order, resolving deferred lookups
//! against the accumulated frontier and feeding every pair through the
//! *same* [`DynStore`] channel machinery the sequential builder uses — so
//! channel numbering, label sharing and consecutive-pair deduplication
//! reproduce the sequential discovery order exactly.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dynslice_analysis::ProgramAnalysis;
use dynslice_ir::{BlockId, FuncId, Program, StmtKind, StmtPos, Terminator, VarId};
use dynslice_profile::ProgramPaths;
use dynslice_runtime::{
    replay_span, Cell, FrameId, ReplayCursor, ReplayVisitor, StmtCx, TraceEvent,
};

use crate::compact::{CompactGraph, DynStore, NONE_TARGET};
use crate::nodes::{CdRes, NodeGraph, UseRes, UseShape};
use crate::segment::{segment, Assign};
use crate::size::BuildStats;

/// Builds the compacted graph on `workers` threads, falling back to the
/// sequential builder for `workers <= 1` or traces too small to segment.
/// The result is bit-identical to [`CompactGraph::build`] for any worker
/// count.
pub fn build_parallel(
    program: &Program,
    analysis: &ProgramAnalysis,
    paths: &ProgramPaths,
    nodes: NodeGraph,
    events: &[TraceEvent],
    workers: usize,
    reg: &dynslice_obs::Registry,
) -> CompactGraph {
    if workers <= 1 {
        return CompactGraph::build(program, analysis, paths, nodes, events);
    }
    let assigns = segment(paths, &nodes, events);
    let num_blocks = assigns.len();
    // Two blocks per segment minimum; tiny traces go sequential.
    let segments = (workers * 2).min(num_blocks / 2);
    if segments <= 1 {
        return CompactGraph::build(program, analysis, paths, nodes, events);
    }
    let read_set = memo_read_set(&nodes);
    let track_memo = !read_set.is_empty();

    // Planning prepass: walk the trace once with no shadow maps, snapshot
    // the replay cursor and per-frame occurrence/timestamp state at every
    // cut ordinal.
    let plan_start = Instant::now();
    let cuts: Vec<usize> = (0..=segments).map(|i| i * num_blocks / segments).collect();
    let mut planner = Planner { nodes: &nodes, assigns: &assigns, pos: 0, next_ts: 0, stack: Vec::new() };
    let mut cursor = ReplayCursor::new();
    let mut seeds = Vec::with_capacity(segments);
    seeds.push(Seed {
        cursor: cursor.clone(),
        frames: Vec::new(),
        ts_base: 0,
        assign_pos: 0,
        end: cuts[1],
    });
    for i in 1..segments {
        replay_span(program, events, &mut cursor, &mut planner, Some(cuts[i]));
        seeds.push(Seed {
            cursor: cursor.clone(),
            frames: planner.stack.clone(),
            ts_base: planner.next_ts,
            assign_pos: cuts[i],
            end: cuts[i + 1],
        });
    }
    let plan_elapsed = plan_start.elapsed();

    // Segment phase: a small pool pulls segment indices off a shared
    // counter; every worker replays its segments against local maps only.
    let next = AtomicUsize::new(0);
    let outs: Vec<Mutex<Option<SegmentOut>>> =
        (0..segments).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers.min(segments) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= segments {
                    break;
                }
                let out =
                    run_segment(program, analysis, &nodes, &assigns, &read_set, &seeds[i], events);
                *outs[i].lock().expect("segment slot") = Some(out);
            });
        }
    });
    let outs: Vec<SegmentOut> = outs
        .into_iter()
        .map(|m| m.into_inner().expect("segment slot").expect("segment built"))
        .collect();

    // Stitch phase: sequential walk of the per-segment logs against the
    // accumulated frontier; all channel allocation happens here, in the
    // exact order the sequential builder would have performed it.
    let stitch_start = Instant::now();
    let num_node_execs = assigns.iter().filter(|a| a.start).count() as u64;
    let mut stitch = Stitcher {
        nodes: &nodes,
        analysis,
        track_memo,
        store: DynStore::default(),
        stats: BuildStats::default(),
        scalar: HashMap::new(),
        mem: HashMap::new(),
        call_site: HashMap::new(),
        last_exec: HashMap::new(),
        memo: HashMap::new(),
    };
    let mut outputs = Vec::new();
    let mut deferred_uses = 0u64;
    let mut deferred_cd = 0u64;
    let mut log_events = 0u64;
    let mut seg_ms_total = Duration::ZERO;
    let mut seg_ms_max = Duration::ZERO;
    for (si, seg) in outs.into_iter().enumerate() {
        stitch.stats.absorb(&seg.stats);
        log_events += seg.log.len() as u64;
        seg_ms_total += seg.elapsed;
        seg_ms_max = seg_ms_max.max(seg.elapsed);
        for ev in &seg.log {
            match *ev {
                Ev::Use { frame, occ, k, ts, lk } => {
                    if !matches!(lk, Lookup::Hit(..)) {
                        deferred_uses += 1;
                    }
                    stitch.use_event(frame, occ, k, ts, lk);
                }
                Ev::Pair { occ, k, target, td, tu } => {
                    stitch.store.record_data_pair(&nodes, &mut stitch.stats, occ, k, target, td, tu);
                }
                Ev::CdPair { key_occ, target, tp, tc } => {
                    stitch.store.record_cd_pair(&nodes, &mut stitch.stats, key_occ, target, tp, tc);
                }
                Ev::CdDefer { frame, func, block, key_occ, ts } => {
                    deferred_cd += 1;
                    stitch.cd_defer(frame, func, block, key_occ, ts);
                }
                Ev::ClearMemo { frame } => {
                    stitch.memo.remove(&frame);
                }
            }
        }
        // Advance the frontier past this segment: later segments' deferred
        // lookups see the union of everything built so far.
        stitch.scalar.extend(seg.scalar);
        stitch.mem.extend(seg.mem);
        stitch.call_site.extend(seg.call_site);
        for (f, b, (occ, ts, seq)) in seg.last_exec {
            stitch.last_exec.entry(f).or_default().insert(b, (occ, ts, (si as u64, seq)));
        }
        outputs.extend(seg.outputs);
    }
    let stitch_elapsed = stitch_start.elapsed();

    reg.counter_add("build.segments", segments as u64);
    reg.counter_set("build.workers", workers as u64);
    reg.counter_add("build.deferred_uses", deferred_uses);
    reg.counter_add("build.deferred_cd", deferred_cd);
    reg.counter_add("build.log_events", log_events);
    reg.counter_add("build.plan_ms", plan_elapsed.as_millis() as u64);
    reg.counter_add("build.segment_ms_total", seg_ms_total.as_millis() as u64);
    reg.gauge_set("build.segment_ms_max", seg_ms_max.as_secs_f64() * 1e3);
    reg.counter_add("build.stitch_ms", stitch_elapsed.as_millis() as u64);

    let Stitcher { store, stats, mem, .. } = stitch;
    CompactGraph::assemble(nodes, store, stats, mem, outputs, num_node_execs)
}

/// Memory uses whose memoized resolution some use-use edge reads
/// (`(target, use_idx)` of every mem-shaped [`UseRes::StaticUu`]): these
/// must reach the stitcher even when they verify locally.
fn memo_read_set(nodes: &NodeGraph) -> HashSet<(u32, u8)> {
    let mut set = HashSet::new();
    for (occ, resv) in nodes.use_res.iter().enumerate() {
        for (k, r) in resv.iter().enumerate() {
            if let UseRes::StaticUu { target, use_idx, .. } = *r {
                let stmt = nodes.occ_stmt[occ];
                if matches!(nodes.stmt_shapes[stmt.index()][k], UseShape::Mem) {
                    set.insert((target, use_idx));
                }
            }
        }
    }
    set
}

/// One segment's starting state, computed by the planning prepass.
struct Seed {
    cursor: ReplayCursor,
    /// Live activations at the cut (outermost first) and their states.
    frames: Vec<(FrameId, FrameSeed)>,
    ts_base: u64,
    assign_pos: usize,
    /// End block ordinal (exclusive).
    end: usize,
}

#[derive(Clone, Copy, Default)]
struct FrameSeed {
    ts: u64,
    base: u32,
    pending_call: u32,
}

/// The planning prepass: tracks, per live frame, exactly the state a
/// segment inherits — current timestamp, block occurrence base and pending
/// call occurrence. No shadow maps, no per-statement hashing.
struct Planner<'p> {
    nodes: &'p NodeGraph,
    assigns: &'p [Assign],
    pos: usize,
    next_ts: u64,
    stack: Vec<(FrameId, FrameSeed)>,
}

impl ReplayVisitor for Planner<'_> {
    fn frame_enter(&mut self, frame: FrameId, _func: FuncId, _call: Option<(FrameId, dynslice_ir::StmtId)>) {
        self.stack.push((frame, FrameSeed::default()));
    }

    fn block_enter(&mut self, _frame: FrameId, _func: FuncId, _block: BlockId) {
        let a = self.assigns[self.pos];
        self.pos += 1;
        let top = &mut self.stack.last_mut().expect("live frame").1;
        if a.start {
            top.ts = self.next_ts;
            self.next_ts += 1;
        }
        top.base = self.nodes.node_base[a.node as usize]
            + self.nodes.nodes[a.node as usize].slot_offsets[a.slot as usize];
    }

    fn stmt(&mut self, cx: StmtCx) {
        if cx.is_call {
            if let StmtPos::Stmt(i) = cx.pos {
                let top = &mut self.stack.last_mut().expect("live frame").1;
                top.pending_call = top.base + i;
            }
        }
    }

    fn frame_exit(&mut self, _frame: FrameId) {
        self.stack.pop();
    }
}

/// How a partial build resolved (or failed to resolve) a use.
#[derive(Copy, Clone, Debug)]
enum Lookup {
    /// Resolved against a segment-local map.
    Hit(u32, u64),
    /// Local miss on a scalar: resolve `(frame, var)` at the frontier.
    Scalar(VarId),
    /// Local miss on a memory cell: resolve at the frontier.
    Mem(Cell),
}

/// One ordered event a segment hands to the stitcher.
#[derive(Copy, Clone, Debug)]
enum Ev {
    /// A use the stitcher must fully re-dispatch (deferred resolution, a
    /// memoized memory use, or a failed/unverifiable static inference).
    Use { frame: FrameId, occ: u32, k: u8, ts: u64, lk: Lookup },
    /// A concrete dynamic data pair (locally counted; channels at stitch).
    Pair { occ: u32, k: u8, target: u32, td: u64, tu: u64 },
    /// A concrete dynamic control pair.
    CdPair { key_occ: u32, target: u32, tp: u64, tc: u64 },
    /// A block entry whose control parent is invisible locally.
    CdDefer { frame: FrameId, func: FuncId, block: BlockId, key_occ: u32, ts: u64 },
    /// The frame started a new node instance (or exited): its memoized
    /// memory-use resolutions are invalidated.
    ClearMemo { frame: FrameId },
}

struct PFrame {
    ts: u64,
    base: u32,
    pending_call: u32,
    /// Entered during this segment (its control/call state is fully local).
    entered_locally: bool,
    /// Last local execution of each block: `(term occ, ts, local seq)`.
    last_exec: HashMap<BlockId, (u32, u64, u64)>,
    seq: u64,
    /// A memoized memory use was logged since the last instance start.
    memo_dirty: bool,
    memo_ever: bool,
}

impl PFrame {
    fn from_seed(s: FrameSeed, entered_locally: bool) -> Self {
        PFrame {
            ts: s.ts,
            base: s.base,
            pending_call: s.pending_call,
            entered_locally,
            last_exec: HashMap::new(),
            seq: 0,
            memo_dirty: false,
            memo_ever: false,
        }
    }
}

/// Everything a segment exports: its ordered event log, its final shadow
/// maps (the frontier contribution) and its locally-counted statistics.
struct SegmentOut {
    log: Vec<Ev>,
    scalar: HashMap<(FrameId, VarId), (u32, u64)>,
    mem: HashMap<Cell, (u32, u64)>,
    call_site: HashMap<FrameId, (u32, u64)>,
    /// `(frame, block, (term occ, ts, local seq))` of live frames.
    last_exec: Vec<(FrameId, BlockId, (u32, u64, u64))>,
    outputs: Vec<(u32, u64)>,
    stats: BuildStats,
    elapsed: Duration,
}

fn run_segment(
    program: &Program,
    analysis: &ProgramAnalysis,
    nodes: &NodeGraph,
    assigns: &[Assign],
    read_set: &HashSet<(u32, u8)>,
    seed: &Seed,
    events: &[TraceEvent],
) -> SegmentOut {
    let start = Instant::now();
    let mut b = PartialBuilder {
        program,
        analysis,
        nodes,
        assigns,
        read_set,
        assign_pos: seed.assign_pos,
        next_ts: seed.ts_base,
        scalar: HashMap::new(),
        mem: HashMap::new(),
        ret: HashMap::new(),
        last_ret: None,
        frames: seed
            .frames
            .iter()
            .map(|&(f, s)| (f, PFrame::from_seed(s, false)))
            .collect(),
        call_site: HashMap::new(),
        outputs: Vec::new(),
        stats: BuildStats::default(),
        log: Vec::new(),
    };
    let mut cursor = seed.cursor.clone();
    replay_span(program, events, &mut cursor, &mut b, Some(seed.end));
    let last_exec = b
        .frames
        .iter()
        .flat_map(|(&f, pf)| pf.last_exec.iter().map(move |(&blk, &e)| (f, blk, e)))
        .collect();
    SegmentOut {
        log: b.log,
        scalar: b.scalar,
        mem: b.mem,
        call_site: b.call_site,
        last_exec,
        outputs: b.outputs,
        stats: b.stats,
        elapsed: start.elapsed(),
    }
}

/// The per-segment builder: the sequential [`CompactGraph`] builder with
/// every globally-visible action either resolved against segment-local maps
/// or deferred into the event log. Purely order-insensitive statistics
/// (verified static inferences) are counted locally and summed later.
struct PartialBuilder<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    nodes: &'p NodeGraph,
    assigns: &'p [Assign],
    read_set: &'p HashSet<(u32, u8)>,
    assign_pos: usize,
    next_ts: u64,
    scalar: HashMap<(FrameId, VarId), (u32, u64)>,
    mem: HashMap<Cell, (u32, u64)>,
    ret: HashMap<FrameId, (u32, u64)>,
    last_ret: Option<(u32, u64)>,
    frames: HashMap<FrameId, PFrame>,
    /// Insert-only within a segment (frame ids are never reused, so stale
    /// entries of exited frames are unreachable).
    call_site: HashMap<FrameId, (u32, u64)>,
    outputs: Vec<(u32, u64)>,
    stats: BuildStats,
    log: Vec<Ev>,
}

impl PartialBuilder<'_> {
    fn partial_use(
        &mut self,
        frame: FrameId,
        occ: u32,
        k: u8,
        shape: &UseShape,
        cell: Option<Cell>,
        ts: u64,
    ) {
        match shape {
            UseShape::Ret => {} // resolved at call_returned
            UseShape::Scalar(v) => match self.scalar.get(&(frame, *v)).copied() {
                Some((docc, td)) => match self.nodes.use_res[occ as usize][k as usize] {
                    // Scalars cannot alias; static inferences always hold
                    // and produce nothing order-sensitive.
                    UseRes::StaticDu { attr, .. } | UseRes::StaticUu { attr, .. } => {
                        self.stats.total_data += 1;
                        self.stats.save(attr);
                    }
                    UseRes::Dynamic | UseRes::NoDep => {
                        self.stats.total_data += 1;
                        self.log.push(Ev::Pair { occ, k, target: docc, td, tu: ts });
                    }
                },
                None => self.log.push(Ev::Use { frame, occ, k, ts, lk: Lookup::Scalar(*v) }),
            },
            UseShape::Mem => {
                let c = cell.expect("memory use has a traced cell");
                let lk = self.mem.get(&c).copied();
                // A locally-verified def-use whose memo entry nothing reads
                // is fully order-insensitive; everything else goes to the
                // stitcher (which owns the memo table).
                if let (Some(a), UseRes::StaticDu { target, attr }) =
                    (lk, self.nodes.use_res[occ as usize][k as usize])
                {
                    if a == (target, ts) && !self.read_set.contains(&(occ, k)) {
                        self.stats.total_data += 1;
                        self.stats.save(attr);
                        return;
                    }
                }
                let fi = self.frames.get_mut(&frame).expect("live frame");
                fi.memo_dirty = true;
                fi.memo_ever = true;
                let lk = match lk {
                    Some((o, t)) => Lookup::Hit(o, t),
                    None => Lookup::Mem(c),
                };
                self.log.push(Ev::Use { frame, occ, k, ts, lk });
            }
        }
    }
}

impl ReplayVisitor for PartialBuilder<'_> {
    fn frame_enter(
        &mut self,
        frame: FrameId,
        func: FuncId,
        call: Option<(FrameId, dynslice_ir::StmtId)>,
    ) {
        if let Some((caller, _stmt)) = call {
            let (occ, ts) = {
                let ci = &self.frames[&caller];
                (ci.pending_call, ci.ts)
            };
            self.call_site.insert(frame, (occ, ts));
            for i in 0..self.program.func(func).params {
                self.scalar.insert((frame, VarId(i)), (occ, ts));
            }
        }
        self.frames.insert(frame, PFrame::from_seed(FrameSeed::default(), true));
    }

    fn block_enter(&mut self, frame: FrameId, func: FuncId, block: BlockId) {
        let assign = self.assigns[self.assign_pos];
        self.assign_pos += 1;
        let node_base = self.nodes.node_base[assign.node as usize];
        let slot_off =
            self.nodes.nodes[assign.node as usize].slot_offsets[assign.slot as usize];
        let key_occ = node_base + slot_off;
        let analysis = self.analysis;
        let ancestors = analysis.func(func).cd.ancestors(block);
        let (parent, ts, entered_locally, clear) = {
            let fi = self.frames.get_mut(&frame).expect("live frame");
            let mut clear = false;
            if assign.start {
                fi.ts = self.next_ts;
                self.next_ts += 1;
                if fi.memo_dirty {
                    fi.memo_dirty = false;
                    clear = true;
                }
            }
            fi.base = key_occ;
            // Any local execution of an ancestor outranks every pre-segment
            // one (the per-frame sequence is monotone), so a local hit is
            // the true parent and a total miss defers to the frontier.
            let parent = ancestors
                .iter()
                .filter_map(|a| fi.last_exec.get(a).copied())
                .max_by_key(|&(_, _, s)| s)
                .map(|(o, t, _)| (o, t));
            fi.seq += 1;
            let seq = fi.seq;
            let ts = fi.ts;
            let bb = self.program.func(func).block(block);
            fi.last_exec.insert(block, (key_occ + bb.stmts.len() as u32, ts, seq));
            (parent, ts, fi.entered_locally, clear)
        };
        if clear {
            self.log.push(Ev::ClearMemo { frame });
        }
        // A frame entered inside this segment has no earlier history: its
        // call-site fallback is local too, so the parent is fully known.
        let parent = match parent {
            Some(p) => Some(Some(p)),
            None if entered_locally => Some(self.call_site.get(&frame).copied()),
            None => None,
        };
        match parent {
            Some(parent) => {
                self.stats.total_control += 1;
                match self.nodes.cd_res[key_occ as usize] {
                    CdRes::Static { target, delta, attr } => {
                        if ts >= delta && parent == Some((target, ts - delta)) {
                            self.stats.save(attr);
                        } else {
                            self.stats.demoted += 1;
                            match parent {
                                Some((pocc, tp)) => {
                                    self.log.push(Ev::CdPair { key_occ, target: pocc, tp, tc: ts });
                                }
                                None => {
                                    self.log.push(Ev::CdPair {
                                        key_occ,
                                        target: NONE_TARGET,
                                        tp: 0,
                                        tc: ts,
                                    });
                                }
                            }
                        }
                    }
                    CdRes::Dynamic => match parent {
                        Some((pocc, tp)) => {
                            self.log.push(Ev::CdPair { key_occ, target: pocc, tp, tc: ts });
                        }
                        // Entry region without a parent: no dependence.
                        None => self.stats.total_control -= 1,
                    },
                }
            }
            None => self.log.push(Ev::CdDefer { frame, func, block, key_occ, ts }),
        }
    }

    fn stmt(&mut self, cx: StmtCx) {
        let (base, ts) = {
            let fi = &self.frames[&cx.frame];
            (fi.base, fi.ts)
        };
        let idx_in_block = match cx.pos {
            StmtPos::Stmt(i) => i,
            StmtPos::Term => self.program.func(cx.func).block(cx.block).stmts.len() as u32,
        };
        let occ = base + idx_in_block;
        debug_assert_eq!(self.nodes.occ_stmt[occ as usize], cx.stmt, "occurrence out of sync");

        let shapes = self.nodes.stmt_shapes[cx.stmt.index()].clone();
        for (k, shape) in shapes.iter().enumerate() {
            self.partial_use(cx.frame, occ, k as u8, shape, cx.cell, ts);
        }

        if cx.is_call {
            self.frames.get_mut(&cx.frame).expect("live frame").pending_call = occ;
            return;
        }
        match cx.pos {
            StmtPos::Stmt(_) => match self.program.stmt_kind(cx.stmt) {
                Some(StmtKind::Assign { dst, .. }) => {
                    self.scalar.insert((cx.frame, *dst), (occ, ts));
                }
                Some(StmtKind::Store { .. }) => {
                    let cell = cx.cell.expect("store has a traced cell");
                    self.mem.insert(cell, (occ, ts));
                }
                Some(StmtKind::Print(_)) => {
                    self.outputs.push((occ, ts));
                }
                None => unreachable!("plain statement"),
            },
            StmtPos::Term => {
                if matches!(self.program.terminator_of(cx.stmt), Some(Terminator::Return(_))) {
                    self.ret.insert(cx.frame, (occ, ts));
                }
            }
        }
    }

    fn call_returned(&mut self, frame: FrameId, _func: FuncId, _block: BlockId, stmt: dynslice_ir::StmtId) {
        let (occ, ts) = {
            let fi = &self.frames[&frame];
            (fi.pending_call, fi.ts)
        };
        let k = (self.nodes.stmt_shapes[stmt.index()].len() - 1) as u8;
        // Return values never cross a cut (see the module docs), so the
        // shuttle is always concrete here.
        if let Some((rocc, tr)) = self.last_ret.take() {
            self.stats.total_data += 1;
            self.log.push(Ev::Pair { occ, k, target: rocc, td: tr, tu: ts });
        }
        if let Some(StmtKind::Assign { dst, .. }) = self.program.stmt_kind(stmt) {
            self.scalar.insert((frame, *dst), (occ, ts));
        }
    }

    fn frame_exit(&mut self, frame: FrameId) {
        self.last_ret = self.ret.remove(&frame);
        if let Some(pf) = self.frames.remove(&frame) {
            if pf.memo_ever {
                self.log.push(Ev::ClearMemo { frame });
            }
        }
    }
}

/// The sequential tail of the pipeline: resolves deferred lookups against
/// the frontier and replays every order-sensitive action through the shared
/// channel machinery.
struct Stitcher<'p> {
    nodes: &'p NodeGraph,
    analysis: &'p ProgramAnalysis,
    track_memo: bool,
    store: DynStore,
    stats: BuildStats,
    scalar: HashMap<(FrameId, VarId), (u32, u64)>,
    mem: HashMap<Cell, (u32, u64)>,
    call_site: HashMap<FrameId, (u32, u64)>,
    /// Frontier of block executions: `(term occ, ts, (segment, local seq))`.
    last_exec: HashMap<FrameId, BlockExecFrontier>,
    memo: HashMap<FrameId, MemoFrontier>,
}

/// Per-frame block-execution frontier: block → `(term occ, ts, global seq)`.
type BlockExecFrontier = HashMap<BlockId, (u32, u64, (u64, u64))>;
/// Per-frame memory-use memo: `(occ, use slot)` → resolved definition.
type MemoFrontier = HashMap<(u32, u8), Option<(u32, u64)>>;

impl Stitcher<'_> {
    /// Mirrors the sequential builder's `handle_use` with the resolution
    /// taken from the log (or the frontier, for deferred lookups).
    fn use_event(&mut self, frame: FrameId, occ: u32, k: u8, ts: u64, lk: Lookup) {
        let (actual, is_mem) = match lk {
            Lookup::Hit(o, t) => (Some((o, t)), true),
            Lookup::Scalar(v) => (self.scalar.get(&(frame, v)).copied(), false),
            Lookup::Mem(c) => (self.mem.get(&c).copied(), true),
        };
        if actual.is_some() {
            self.stats.total_data += 1;
        }
        if is_mem && self.track_memo {
            self.memo.entry(frame).or_default().insert((occ, k), actual);
        }
        match self.nodes.use_res[occ as usize][k as usize] {
            UseRes::StaticDu { target, attr } => {
                if !is_mem || actual == Some((target, ts)) {
                    self.stats.save(attr);
                } else {
                    self.demote(occ, k, actual, ts);
                }
            }
            UseRes::StaticUu { target, use_idx, attr } => {
                if !is_mem {
                    self.stats.save(attr);
                } else {
                    let expected = self
                        .memo
                        .get(&frame)
                        .and_then(|m| m.get(&(target, use_idx)).copied())
                        .flatten();
                    if actual == expected {
                        self.stats.save(attr);
                    } else {
                        self.demote(occ, k, actual, ts);
                    }
                }
            }
            UseRes::Dynamic | UseRes::NoDep => {
                if let Some((docc, td)) = actual {
                    self.store.record_data_pair(self.nodes, &mut self.stats, occ, k, docc, td, ts);
                }
            }
        }
    }

    fn demote(&mut self, occ: u32, k: u8, actual: Option<(u32, u64)>, ts: u64) {
        self.stats.demoted += 1;
        match actual {
            Some((docc, td)) => {
                self.store.record_data_pair(self.nodes, &mut self.stats, occ, k, docc, td, ts);
            }
            None => {
                self.store.record_data_pair(self.nodes, &mut self.stats, occ, k, NONE_TARGET, 0, ts);
            }
        }
    }

    /// A block entry whose parent had to be resolved at the frontier.
    fn cd_defer(&mut self, frame: FrameId, func: FuncId, block: BlockId, key_occ: u32, ts: u64) {
        let ancestors = self.analysis.func(func).cd.ancestors(block);
        let parent = self
            .last_exec
            .get(&frame)
            .and_then(|m| {
                ancestors
                    .iter()
                    .filter_map(|a| m.get(a).copied())
                    .max_by_key(|&(_, _, s)| s)
                    .map(|(o, t, _)| (o, t))
            })
            .or_else(|| self.call_site.get(&frame).copied());
        self.stats.total_control += 1;
        match self.nodes.cd_res[key_occ as usize] {
            CdRes::Static { target, delta, attr } => {
                if ts >= delta && parent == Some((target, ts - delta)) {
                    self.stats.save(attr);
                } else {
                    self.stats.demoted += 1;
                    match parent {
                        Some((pocc, tp)) => {
                            self.store.record_cd_pair(self.nodes, &mut self.stats, key_occ, pocc, tp, ts);
                        }
                        None => {
                            self.store.record_cd_pair(
                                self.nodes,
                                &mut self.stats,
                                key_occ,
                                NONE_TARGET,
                                0,
                                ts,
                            );
                        }
                    }
                }
            }
            CdRes::Dynamic => match parent {
                Some((pocc, tp)) => {
                    self.store.record_cd_pair(self.nodes, &mut self.stats, key_occ, pocc, tp, ts);
                }
                None => self.stats.total_control -= 1, // entry region: no dependence
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nodes::{OptConfig, SpecPolicy};
    use crate::{build_compact, build_compact_parallel};
    use dynslice_runtime::{run, VmOptions};

    /// The parallel build must be *bit-identical* to the sequential one:
    /// same channel tables in the same order, same dynamic edge rows (the
    /// flat offset and edge arrays), same statistics — not merely
    /// slice-equivalent.
    fn assert_bit_identical(src: &str, input: Vec<i64>, config: &OptConfig) {
        let p = dynslice_lang::compile(src).expect("compiles");
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions { input, ..Default::default() });
        let seq = build_compact(&p, &a, &t.events, config);
        for workers in [1, 2, 3, 8] {
            let reg = dynslice_obs::Registry::disabled();
            let par = build_compact_parallel(&p, &a, &t.events, config, workers, &reg);
            assert_eq!(seq.channels, par.channels, "channels ({workers} workers)\n{src}");
            assert_eq!(seq.data_dyn, par.data_dyn, "data edges ({workers} workers)\n{src}");
            assert_eq!(seq.cd_dyn, par.cd_dyn, "control edges ({workers} workers)\n{src}");
            assert_eq!(seq.last_def, par.last_def, "last defs ({workers} workers)");
            assert_eq!(seq.outputs, par.outputs, "outputs ({workers} workers)");
            assert_eq!(seq.stats, par.stats, "build stats ({workers} workers)\n{src}");
            assert_eq!(seq.num_node_execs, par.num_node_execs, "execs ({workers} workers)");
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
    fn parallel_matches_sequential_loops_and_aliasing() {
        for c in all_configs() {
            assert_bit_identical(
                "global int x[2];
                 global int y[2];
                 fn main() {
                   int i;
                   for (i = 0; i < 24; i = i + 1) {
                     ptr p = &x[0];
                     if (input()) { p = &y[0]; }
                     *p = i;
                     x[1] = x[0] + y[0];
                   }
                   print x[1];
                 }",
                vec![0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 1, 0, 1, 0, 0, 1, 1, 0, 1],
                &c,
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_calls_and_recursion() {
        for c in all_configs() {
            assert_bit_identical(
                "global int depth[1];
                 fn fib(int n) -> int {
                   depth[0] = depth[0] + 1;
                   if (n < 2) { return n; }
                   return fib(n - 1) + fib(n - 2);
                 }
                 fn main() { print fib(9); print depth[0]; depth[0] = 0; }",
                vec![],
                &c,
            );
        }
    }

    #[test]
    fn parallel_matches_sequential_heap_traffic() {
        for c in all_configs() {
            assert_bit_identical(
                "fn sum(ptr p, int n) -> int {
                   int s = 0;
                   int i;
                   for (i = 0; i < n; i = i + 1) { s = s + *(p + i); }
                   return s;
                 }
                 fn main() {
                   ptr buf = alloc(7);
                   int i;
                   int j;
                   for (j = 0; j < 4; j = j + 1) {
                     for (i = 0; i < 7; i = i + 1) { *(buf + i) = i * input() + j; }
                     print sum(buf, 7);
                   }
                 }",
                vec![2, 3, 1, 5, 4, 2, 9, 1, 1, 3, 7, 2, 8, 4, 6, 5, 2, 3, 1, 5, 4, 2, 9, 1, 1, 3, 7, 2],
                &c,
            );
        }
    }

    #[test]
    fn tiny_traces_fall_back_to_sequential() {
        assert_bit_identical(
            "global int a[1];
             fn main() { a[0] = 1; print a[0]; }",
            vec![],
            &OptConfig::default(),
        );
    }
}
