//! The compacted dynamic dependence graph (the paper's OPT representation)
//! — dynamic component, slicing traversal and shortcut edges.
//!
//! The builder replays the trace over the static [`NodeGraph`]: every
//! dependence instance whose timestamps the static component can *infer* is
//! verified against the actual shadow-map resolution and costs nothing;
//! instances the static component cannot infer (or whose inference fails
//! verification — the aliasing cases of OPT-1b) get explicit timestamp
//! pairs on dynamic edges. Label lists may be shared between edges per the
//! OPT-3/OPT-6 plan; identical consecutive pairs on a shared list are
//! stored once.
//!
//! # Traversal kernel
//!
//! The walk touches every visited instance's shortcut closure and probes
//! the dynamic edges of each frontier entry, so its structures are flat:
//!
//! * dynamic edges are compressed-sparse-row arrays ([`EdgeRows`]): data
//!   edges one row per use slot (an occurrence's slot base plus `k`),
//!   control edges one row per block-key occurrence — a lookup is two
//!   slice indexings, not a hash probe;
//! * each piece of work is done once per query. Node instances share one
//!   timestamp, so the closures of one instance's statements overlap; a
//!   label-searching frontier entry is resolved at most once per
//!   timestamp — use entries keyed by use slot, control entries by block
//!   key (`cd_res` is per block slot, so every occurrence under a key
//!   resolves alike) — and a closure's statements enter the slice once per
//!   occurrence, not once per visited instance;
//! * the walk's visited instances and resolved entries live in one
//!   [`WalkMemo`], `(id, timestamp)` keys packed into a `u64` where the
//!   graph's ids and timestamps fit, hashed with the crate's
//!   multiply-rotate [`FastHasher`](crate::fast_hash::FastHasher) and sized
//!   up front from the graph's high-water mark, so a steady-state query
//!   never rehashes and a small graph's walks keep small tables;
//! * the slice is a bitmap over statement ids ([`Bits`]), turned into the
//!   sorted result set once, at the end;
//! * shortcut closures list their statements and frontier sorted, so walks
//!   (and the paged backend's page-access order) are deterministic.
//!
//! # Build state
//!
//! Replay callbacks always name the innermost activation, so the builder's
//! per-frame shadow state is an activation stack, not maps keyed by
//! [`FrameId`]: each frame holds its variables' last definitions indexed
//! by variable slot, its blocks' last executions indexed by block id, its
//! call site and its returned instance; only its use-use memo is a
//! (fast-hashed) map. An exited frame's buffers go to the next frame
//! entered. The memory shadow map, keyed by program-chosen addresses,
//! keeps SipHash.

use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use dynslice_analysis::ProgramAnalysis;
use dynslice_ir::{BlockId, FuncId, Program, StmtId, StmtKind, StmtPos, Terminator};
use dynslice_profile::ProgramPaths;
use dynslice_runtime::{replay, Cell, FrameId, ReplayVisitor, StmtCx, TraceEvent};

use crate::fast_hash::{FastMap, FastSet};
use crate::nodes::{CdRes, NodeGraph, UseRes, UseShape};
use crate::segment::{segment, Assign};
use crate::size::{BuildStats, GraphSize, OptKind};

/// Sentinel "no definition" dynamic-edge target.
pub(crate) const NONE_TARGET: u32 = u32::MAX;

/// The compacted dyDG, ready for slicing.
#[derive(Debug)]
pub struct CompactGraph {
    /// The static component.
    pub nodes: NodeGraph,
    /// Timestamp-pair lists (channels); shared lists appear once.
    pub(crate) channels: Vec<Vec<(u64, u64)>>,
    /// First use slot of each occurrence (one extra entry closes the
    /// last): use `(occ, k)` is slot `use_base[occ] + k`. Derived from
    /// `nodes.use_res`.
    use_base: Vec<u32>,
    /// Dynamic data edges, one row of `(target, channel)` per use slot.
    pub(crate) data_dyn: EdgeRows,
    /// Dynamic control edges, one row per block-key occurrence.
    pub(crate) cd_dyn: EdgeRows,
    /// Final defining instance of every memory cell.
    pub last_def: HashMap<Cell, (u32, u64)>,
    /// Executed print instances `(occurrence, ts)`, in order.
    pub outputs: Vec<(u32, u64)>,
    /// Build statistics (per-optimization savings; Fig. 15/16).
    pub stats: BuildStats,
    /// Total node executions (= final timestamp).
    pub num_node_execs: u64,
    /// Lazily computed shortcut closures.
    shortcuts: ShortcutTable,
    /// The most entries any walk over this graph has put in its
    /// [`WalkMemo`] (monotone): the next walk's table size. Derived state,
    /// like the shortcut memo.
    memo_high_water: AtomicUsize,
}

/// Where a slicing traversal finds dynamic labels: channel `chan`'s
/// timestamp pairs, sorted by use timestamp. The resident channels never
/// fail; the paged hybrid's page cache fails with an I/O error.
pub(crate) trait LabelSearch {
    /// Why a lookup can fail.
    type Error;

    /// The definition timestamp paired with use timestamp `tu` on channel
    /// `chan`, if the channel holds one.
    fn search(&mut self, chan: u32, tu: u64) -> Result<Option<u64>, Self::Error>;
}

/// OPT's labels: the channels held in memory.
struct Resident<'g>(&'g [Vec<(u64, u64)>]);

impl LabelSearch for Resident<'_> {
    type Error = Infallible;

    #[inline]
    fn search(&mut self, chan: u32, tu: u64) -> Result<Option<u64>, Infallible> {
        let ch = &self.0[chan as usize];
        Ok(ch.binary_search_by_key(&tu, |&(_, u)| u).ok().map(|i| ch[i].0))
    }
}

/// Dynamic edge lists in compressed-sparse-row form: row `r`'s
/// `(target, channel)` pairs are `edges[start[r]..start[r + 1]]`, so
/// finding a row is two slice indexings. Empty rows cost one offset.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeRows {
    /// Row offsets into `edges`; one more entry than there are rows.
    start: Vec<u32>,
    edges: Vec<(u32, u32)>,
}

impl EdgeRows {
    /// Lays out `lists` — `(row, edges)` with distinct rows, in any order —
    /// over `num_rows` rows.
    fn from_lists(num_rows: usize, mut lists: Vec<(usize, Vec<(u32, u32)>)>) -> Self {
        lists.sort_unstable_by_key(|&(r, _)| r);
        let mut rows = EdgeRowsBuilder::new(num_rows);
        for (r, edges) in &lists {
            rows.push(*r, edges);
        }
        rows.finish()
    }

    /// Row `r`'s edges (empty if it has none).
    #[inline]
    pub(crate) fn row(&self, r: usize) -> &[(u32, u32)] {
        &self.edges[self.start[r] as usize..self.start[r + 1] as usize]
    }

    /// Edges across all rows.
    pub(crate) fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The non-empty rows with their indices, in row order.
    pub(crate) fn rows(&self) -> impl Iterator<Item = (usize, &[(u32, u32)])> {
        self.start
            .windows(2)
            .enumerate()
            .filter(|(_, w)| w[0] != w[1])
            .map(|(r, w)| (r, &self.edges[w[0] as usize..w[1] as usize]))
    }
}

/// Builds [`EdgeRows`] from rows appended in strictly increasing order.
#[derive(Debug)]
pub(crate) struct EdgeRowsBuilder {
    num_rows: usize,
    rows: EdgeRows,
}

impl EdgeRowsBuilder {
    pub(crate) fn new(num_rows: usize) -> Self {
        let mut start = Vec::with_capacity(num_rows + 1);
        start.push(0);
        Self { num_rows, rows: EdgeRows { start, edges: Vec::new() } }
    }

    /// Appends row `r`'s edges; the rows skipped since the last one are
    /// empty. `r` must be past every row appended so far and below the
    /// row count.
    pub(crate) fn push(&mut self, r: usize, edges: &[(u32, u32)]) {
        let next = self.rows.start.len() - 1;
        assert!(r >= next && r < self.num_rows, "edge row {r} out of order");
        let end = *self.rows.start.last().expect("offsets start at 0");
        self.rows.start.resize(r + 1, end);
        self.rows.edges.extend_from_slice(edges);
        let end = u32::try_from(self.rows.edges.len()).expect("dynamic edges fit u32 offsets");
        self.rows.start.push(end);
    }

    /// Closes the remaining rows (empty).
    pub(crate) fn finish(mut self) -> EdgeRows {
        let end = *self.rows.start.last().expect("offsets start at 0");
        self.rows.start.resize(self.num_rows + 1, end);
        self.rows
    }
}

/// First use slot of each occurrence, plus the total: the row base of
/// [`CompactGraph`]'s data edges.
pub(crate) fn use_slot_base(nodes: &NodeGraph) -> Vec<u32> {
    let mut base = Vec::with_capacity(nodes.num_occs() + 1);
    let mut next = 0u32;
    base.push(next);
    for uses in &nodes.use_res {
        next += uses.len() as u32;
        base.push(next);
    }
    base
}

/// A set of dense indices, one bit each — statements of a slice,
/// occurrences whose closure is in it: adding one is a word OR, and a
/// statement set comes out sorted in one pass at the end.
struct Bits(Vec<u64>);

impl Bits {
    fn new(len: usize) -> Self {
        Bits(vec![0; len.div_ceil(64)])
    }

    /// Adds `i`; false if it was already in.
    #[inline]
    fn insert(&mut self, i: usize) -> bool {
        let (word, bit) = (&mut self.0[i / 64], 1 << (i % 64));
        let fresh = *word & bit == 0;
        *word |= bit;
        fresh
    }

    fn into_stmts(self) -> BTreeSet<StmtId> {
        let mut out = Vec::new();
        for (w, &word) in self.0.iter().enumerate() {
            let mut bits = word;
            while bits != 0 {
                out.push(StmtId((w * 64) as u32 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        // Ascending, so the sort inside the set's bulk build is one pass.
        out.into_iter().collect()
    }
}

/// What one walk has done, as `(id, timestamp)` keys in one set: id `occ`
/// is the visited instance `(occ, ts)`, id `num_occs + slot` is use slot
/// `slot` resolved at `ts`, id `num_occs + use_slots + key` is block key
/// `key`'s control dependence resolved at `ts`.
///
/// Every timestamp a walk meets is below the graph's final timestamp or at
/// most the criterion's (labels name executed instances; static edges keep
/// the timestamp or step back), so with `stride` above both a key packs
/// into one word as `id * stride + ts` whenever that product fits — half
/// the table of a pair key. A graph too large for that keeps pairs.
enum WalkMemo {
    Packed { seen: FastSet<u64>, stride: u64 },
    Pairs(FastSet<(u64, u64)>),
}

impl WalkMemo {
    /// An empty memo for `ids` ids and timestamps below `stride`, with
    /// room for `capacity` keys (`with_capacity` adds the table's
    /// load-factor headroom, so that many never rehash).
    fn new(ids: u64, stride: u64, capacity: usize) -> Self {
        if ids.checked_mul(stride).is_some() {
            let seen = FastSet::with_capacity_and_hasher(capacity, Default::default());
            WalkMemo::Packed { seen, stride }
        } else {
            WalkMemo::Pairs(FastSet::with_capacity_and_hasher(capacity, Default::default()))
        }
    }

    /// Adds `(id, ts)`; false if the walk has done it before.
    #[inline]
    fn insert(&mut self, id: u64, ts: u64) -> bool {
        match self {
            WalkMemo::Packed { seen, stride } => seen.insert(id * *stride + ts),
            WalkMemo::Pairs(seen) => seen.insert((id, ts)),
        }
    }

    fn len(&self) -> usize {
        match self {
            WalkMemo::Packed { seen, .. } => seen.len(),
            WalkMemo::Pairs(seen) => seen.len(),
        }
    }
}

/// Sharded, lock-free-ish shortcut memo: one [`OnceLock`] slot per
/// occurrence. Readers never block; two threads racing to materialize the
/// same occurrence both compute the (identical, deterministic) closure and
/// one write wins. This is what lets a single `CompactGraph` be shared by
/// reference across the batch engine's worker threads — the previous
/// `RefCell<HashMap<..>>` design made the graph `!Sync`.
#[derive(Debug, Default)]
struct ShortcutTable {
    slots: Vec<OnceLock<Shortcut>>,
    /// Number of closures actually materialized (monotone; observability).
    materialized: AtomicU64,
    /// Skip-list statements of the materialized closures, as
    /// [`GraphSize::shortcut_stmts`] counts them (monotone): what the
    /// memo occupies so far, without walking it.
    materialized_stmts: AtomicU64,
}

impl ShortcutTable {
    fn new(num_occs: usize) -> Self {
        let mut slots = Vec::new();
        slots.resize_with(num_occs, OnceLock::new);
        Self { slots, materialized: AtomicU64::new(0), materialized_stmts: AtomicU64::new(0) }
    }
}

/// Counters for one slice traversal, surfaced per worker by the batch
/// engine (`dynslice-slicing`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TraversalStats {
    /// Distinct `(occurrence, timestamp)` instances visited.
    pub instances_visited: u64,
    /// Shortcut closures this traversal materialized (won the write race).
    pub shortcuts_materialized: u64,
    /// Shortcut lookups served from the memo table.
    pub shortcut_hits: u64,
    /// Dynamic-label searches (one per channel tried while resolving a
    /// use or control dependence): the paper's labeled-edge cost.
    pub label_searches: u64,
}

impl dynslice_obs::RecordMetrics for TraversalStats {
    fn record_metrics(&self, reg: &dynslice_obs::Registry) {
        reg.counter_add("opt.instances_visited", self.instances_visited);
        reg.counter_add("opt.shortcuts_materialized", self.shortcuts_materialized);
        reg.counter_add("opt.shortcut_hits", self.shortcut_hits);
        reg.counter_add("opt.label_searches", self.label_searches);
    }
}

/// Precomputed transitive closure over purely static, same-timestamp edges
/// from one occurrence (the paper's shortcut edges, §3.4).
#[derive(Debug, Default)]
struct Shortcut {
    /// Statements reached via static edges (all at the origin's
    /// timestamp), ascending.
    stmts: Vec<StmtId>,
    /// Points where traversal needs dynamic labels or a timestamp change,
    /// sorted, so the walk pushes successors in a fixed order.
    frontier: Vec<Frontier>,
}

impl Shortcut {
    /// Statements this closure lists as a shortcut edge under the size
    /// model: a closure of the origin alone is no shortcut.
    fn skip_stmts(&self) -> u64 {
        if self.stmts.len() > 1 {
            self.stmts.len() as u64
        } else {
            0
        }
    }
}

#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Frontier {
    /// Resolve use `(occurrence, slot)` dynamically at the origin ts.
    Use(u32, u8),
    /// Resolve the control dependence of this block key dynamically.
    Cd(u32),
    /// Follow a constant-distance control edge: parent instance at
    /// `ts - delta`.
    Jump(u32, u64),
}

impl CompactGraph {
    /// Builds the compacted graph from a trace over a prebuilt static
    /// component.
    pub fn build(
        program: &Program,
        analysis: &ProgramAnalysis,
        paths: &ProgramPaths,
        nodes: NodeGraph,
        events: &[TraceEvent],
    ) -> Self {
        let assigns = segment(paths, &nodes, events);
        let mut b = Builder {
            program,
            analysis,
            nodes: &nodes,
            store: DynStore::default(),
            stats: BuildStats::default(),
            last_def: HashMap::new(),
            outputs: Vec::new(),
            assigns,
            assign_pos: 0,
            next_ts: 0,
            mem: HashMap::new(),
            last_ret: None,
            frames: Vec::new(),
            spare: Vec::new(),
        };
        replay(program, events, &mut b);
        let ts = b.next_ts;
        let (store, stats, last_def, outputs) = (b.store, b.stats, b.last_def, b.outputs);
        Self::assemble(nodes, store, stats, last_def, outputs, ts)
    }

    /// Assembles a graph from its built parts, sorting every channel into
    /// use-timestamp order (return-value edges append out of `tu` order)
    /// and laying the store's edge maps out as [`EdgeRows`].
    fn assemble(
        nodes: NodeGraph,
        store: DynStore,
        stats: BuildStats,
        last_def: HashMap<Cell, (u32, u64)>,
        outputs: Vec<(u32, u64)>,
        num_node_execs: u64,
    ) -> Self {
        let num_occs = nodes.num_occs();
        let use_base = use_slot_base(&nodes);
        let data_lists = store
            .data_dyn
            .into_iter()
            .map(|((occ, k), edges)| (use_base[occ as usize] as usize + k as usize, edges))
            .collect();
        let data_dyn = EdgeRows::from_lists(use_base[num_occs] as usize, data_lists);
        let cd_lists = store.cd_dyn.into_iter().map(|(key, edges)| (key as usize, edges)).collect();
        let cd_dyn = EdgeRows::from_lists(num_occs, cd_lists);
        let mut g = CompactGraph {
            nodes,
            channels: store.channels,
            use_base,
            data_dyn,
            cd_dyn,
            last_def,
            outputs,
            stats,
            num_node_execs,
            shortcuts: ShortcutTable::new(num_occs),
            memo_high_water: AtomicUsize::new(0),
        };
        for ch in &mut g.channels {
            ch.sort_unstable_by_key(|&(_, tu)| tu);
        }
        g
    }

    /// Reassembles a graph from already-final arenas — the snapshot
    /// reader's constructor. Unlike [`CompactGraph::assemble`] it does
    /// **not** re-sort channels: the serialized channel order is the
    /// as-built order, and `sort_unstable_by_key` could permute equal-key
    /// pairs, breaking the round-trip bit-identity that
    /// [`CompactGraph::first_difference`] pins. `use_base` is
    /// [`use_slot_base`] of `nodes`, the row base `data_dyn` was laid out
    /// against. The shortcut memo is derived state (excluded from
    /// `first_difference`) and starts empty, as does the walk-memo high-water
    /// mark.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        nodes: NodeGraph,
        channels: Vec<Vec<(u64, u64)>>,
        use_base: Vec<u32>,
        data_dyn: EdgeRows,
        cd_dyn: EdgeRows,
        last_def: HashMap<Cell, (u32, u64)>,
        outputs: Vec<(u32, u64)>,
        stats: BuildStats,
        num_node_execs: u64,
    ) -> Self {
        let num_occs = nodes.num_occs();
        CompactGraph {
            nodes,
            channels,
            use_base,
            data_dyn,
            cd_dyn,
            last_def,
            outputs,
            stats,
            num_node_execs,
            shortcuts: ShortcutTable::new(num_occs),
            memo_high_water: AtomicUsize::new(0),
        }
    }

    /// The statement of an occurrence.
    #[inline]
    pub fn stmt_of(&self, occ: u32) -> StmtId {
        self.nodes.occ_stmt[occ as usize]
    }

    /// Use slots across all occurrences (the data-edge rows).
    fn num_use_slots(&self) -> u64 {
        u64::from(self.use_base[self.nodes.num_occs()])
    }

    /// Statements in the program (the width of a slice bitmap).
    fn num_stmts(&self) -> usize {
        self.nodes.stmt_shapes.len()
    }

    /// Dynamic data edges of use `(occ, k)` as `(target, channel)` pairs;
    /// `k` is one of `occ`'s use slots.
    #[inline]
    pub fn dyn_edges(&self, occ: u32, k: u8) -> &[(u32, u32)] {
        debug_assert!((k as usize) < self.nodes.use_res[occ as usize].len(), "use slot {k} of {occ}");
        self.data_dyn.row(self.use_base[occ as usize] as usize + k as usize)
    }

    /// Dynamic control edges hanging off block-key occurrence `key`.
    #[inline]
    pub fn cd_edges(&self, key: u32) -> &[(u32, u32)] {
        self.cd_dyn.row(key as usize)
    }

    /// The non-empty data edge lists keyed by use `(occ, k)`, in key
    /// order (the snapshot's DYN section order).
    pub(crate) fn data_edge_lists(&self) -> impl Iterator<Item = ((u32, u8), &[(u32, u32)])> {
        let mut occ = 0;
        self.data_dyn.rows().map(move |(slot, edges)| {
            while self.use_base[occ + 1] as usize <= slot {
                occ += 1;
            }
            ((occ as u32, (slot - self.use_base[occ] as usize) as u8), edges)
        })
    }

    /// Takes the timestamp-pair lists out of the graph (leaving them
    /// empty), for spilling to disk — see [`crate::paged::PagedGraph`].
    pub fn drain_channels(&mut self) -> Vec<Vec<(u64, u64)>> {
        std::mem::take(&mut self.channels)
    }

    /// Resolves use `(occ, k)` of the instance at `ts` to its defining
    /// instance, if any. Searches dynamic labels first, then applies the
    /// static inference; use-use edges chain without contributing.
    fn resolve_use<L: LabelSearch>(
        &self,
        labels: &mut L,
        occ: u32,
        k: u8,
        ts: u64,
        stats: &mut TraversalStats,
    ) -> Result<Option<(u32, u64)>, L::Error> {
        for &(target, chan) in self.dyn_edges(occ, k) {
            stats.label_searches += 1;
            if let Some(td) = labels.search(chan, ts)? {
                return Ok((target != NONE_TARGET).then_some((target, td)));
            }
        }
        Ok(match self.nodes.use_res[occ as usize][k as usize] {
            UseRes::StaticDu { target, .. } => Some((target, ts)),
            UseRes::StaticUu { target, use_idx, .. } => {
                return self.resolve_use(labels, target, use_idx, ts, stats)
            }
            UseRes::Dynamic | UseRes::NoDep => None,
        })
    }

    /// Resolves the control dependence of the block containing `occ` at
    /// instance `ts`.
    fn resolve_cd<L: LabelSearch>(
        &self,
        labels: &mut L,
        occ: u32,
        ts: u64,
        stats: &mut TraversalStats,
    ) -> Result<Option<(u32, u64)>, L::Error> {
        let key = self.nodes.occ_block_key[occ as usize];
        for &(target, chan) in self.cd_edges(key) {
            stats.label_searches += 1;
            if let Some(tp) = labels.search(chan, ts)? {
                return Ok((target != NONE_TARGET).then_some((target, tp)));
            }
        }
        Ok(match self.nodes.cd_res[occ as usize] {
            CdRes::Static { target, delta, .. } if ts >= delta => Some((target, ts - delta)),
            _ => None,
        })
    }

    /// Computes the backward dynamic slice from instance `(occ, ts)`.
    ///
    /// `use_shortcuts` enables the paper's shortcut edges: chains of static
    /// edges are traversed as one precomputed step.
    pub fn slice(&self, occ: u32, ts: u64, use_shortcuts: bool) -> BTreeSet<StmtId> {
        self.slice_with_stats(occ, ts, use_shortcuts).0
    }

    /// [`Self::slice`], also returning traversal counters (the batch
    /// engine aggregates these per worker).
    pub fn slice_with_stats(
        &self,
        occ: u32,
        ts: u64,
        use_shortcuts: bool,
    ) -> (BTreeSet<StmtId>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let mut labels = Resident(&self.channels);
        match self.slice_in(&mut labels, occ, ts, use_shortcuts, &mut stats) {
            Ok(slice) => (slice, stats),
            Err(never) => match never {},
        }
    }

    /// The one slicing traversal, over labels found through `labels`: the
    /// resident channels for OPT, the page cache for
    /// [`crate::paged::PagedGraph`]. Only where the labels come from
    /// differs; the first label-lookup error aborts the walk.
    pub(crate) fn slice_in<L: LabelSearch>(
        &self,
        labels: &mut L,
        occ: u32,
        ts: u64,
        use_shortcuts: bool,
        stats: &mut TraversalStats,
    ) -> Result<BTreeSet<StmtId>, L::Error> {
        if use_shortcuts {
            self.slice_shortcut(labels, occ, ts, stats)
        } else {
            self.slice_plain(labels, occ, ts, stats)
        }
    }

    fn slice_plain<L: LabelSearch>(
        &self,
        labels: &mut L,
        occ: u32,
        ts: u64,
        stats: &mut TraversalStats,
    ) -> Result<BTreeSet<StmtId>, L::Error> {
        let mut slice = Bits::new(self.num_stmts());
        let mut visited = self.walk_memo(ts);
        let mut work = vec![(occ, ts)];
        while let Some((occ, ts)) = work.pop() {
            if !visited.insert(u64::from(occ), ts) {
                continue;
            }
            stats.instances_visited += 1;
            slice.insert(self.stmt_of(occ).index());
            let nuses = self.nodes.use_res[occ as usize].len();
            for k in 0..nuses as u8 {
                work.extend(self.resolve_use(labels, occ, k, ts, stats)?);
            }
            work.extend(self.resolve_cd(labels, occ, ts, stats)?);
        }
        self.note_walk(&visited);
        Ok(slice.into_stmts())
    }

    /// The shortcut walk. Every instance it visits is expanded — its
    /// closure looked up, so `shortcut_hits` counts visits — but the rest
    /// is done once per query: a closure's statements enter the slice on
    /// its occurrence's first visit, and a use or control frontier entry
    /// is resolved once per timestamp (its successor is already queued).
    fn slice_shortcut<L: LabelSearch>(
        &self,
        labels: &mut L,
        occ: u32,
        ts: u64,
        stats: &mut TraversalStats,
    ) -> Result<BTreeSet<StmtId>, L::Error> {
        let num_occs = self.nodes.num_occs() as u64;
        let cd_ids = num_occs + self.num_use_slots();
        let mut slice = Bits::new(self.num_stmts());
        let mut expanded = Bits::new(self.nodes.num_occs());
        let mut memo = self.walk_memo(ts);
        let mut work = vec![(occ, ts)];
        while let Some((occ, ts)) = work.pop() {
            if !memo.insert(u64::from(occ), ts) {
                continue;
            }
            stats.instances_visited += 1;
            let sc = self.shortcut_counted(occ, stats);
            if expanded.insert(occ as usize) {
                for &s in &sc.stmts {
                    slice.insert(s.index());
                }
            }
            for f in &sc.frontier {
                let next = match *f {
                    Frontier::Use(o, k) => {
                        let slot = self.use_base[o as usize] + u32::from(k);
                        if !memo.insert(num_occs + u64::from(slot), ts) {
                            continue;
                        }
                        self.resolve_use(labels, o, k, ts, stats)?
                    }
                    Frontier::Cd(o) => {
                        let key = self.nodes.occ_block_key[o as usize];
                        if !memo.insert(cd_ids + u64::from(key), ts) {
                            continue;
                        }
                        self.resolve_cd(labels, o, ts, stats)?
                    }
                    Frontier::Jump(target, delta) => (ts >= delta).then(|| (target, ts - delta)),
                };
                work.extend(next);
            }
        }
        self.note_walk(&memo);
        Ok(slice.into_stmts())
    }

    /// An empty [`WalkMemo`] for a walk from timestamp `ts`, sized for the
    /// largest walk over this graph so far.
    fn walk_memo(&self, ts: u64) -> WalkMemo {
        let ids = 2 * self.nodes.num_occs() as u64 + self.num_use_slots();
        let stride = self.num_node_execs.max(ts.saturating_add(1));
        WalkMemo::new(ids, stride, self.memo_high_water.load(Ordering::Relaxed))
    }

    /// Raises the high-water mark to a finished walk's memo size.
    fn note_walk(&self, memo: &WalkMemo) {
        self.memo_high_water.fetch_max(memo.len(), Ordering::Relaxed);
    }

    /// The shortcut closure of `occ` (computed lazily, memoized in the
    /// lock-free per-occurrence table; safe to call from many threads).
    fn shortcut(&self, occ: u32) -> &Shortcut {
        let mut stats = TraversalStats::default();
        self.shortcut_counted(occ, &mut stats)
    }

    fn shortcut_counted(&self, occ: u32, stats: &mut TraversalStats) -> &Shortcut {
        let slot = &self.shortcuts.slots[occ as usize];
        if let Some(sc) = slot.get() {
            stats.shortcut_hits += 1;
            return sc;
        }
        let mut stmts = FastSet::default();
        let mut frontier = FastSet::default();
        let mut cd_seen = FastSet::default();
        self.closure(occ, &mut stmts, &mut frontier, &mut cd_seen);
        let mut sc = Shortcut {
            stmts: stmts.into_iter().collect(),
            frontier: frontier.into_iter().collect(),
        };
        sc.stmts.sort_unstable();
        sc.frontier.sort_unstable();
        let skip_stmts = sc.skip_stmts();
        // A concurrent traversal may have materialized the same closure in
        // the meantime; the computation is deterministic, so losing the
        // race is benign — use whichever value landed.
        if slot.set(sc).is_ok() {
            self.shortcuts.materialized.fetch_add(1, Ordering::Relaxed);
            self.shortcuts.materialized_stmts.fetch_add(skip_stmts, Ordering::Relaxed);
            stats.shortcuts_materialized += 1;
        } else {
            stats.shortcut_hits += 1;
        }
        slot.get().expect("slot initialized above")
    }

    /// Total shortcut closures materialized so far (shared across all
    /// threads slicing this graph).
    pub fn shortcuts_materialized(&self) -> u64 {
        self.shortcuts.materialized.load(Ordering::Relaxed)
    }

    /// The size model of what the graph holds right now: [`Self::size`]
    /// without shortcuts, plus the shortcut closures materialized so far —
    /// a running count, so measuring never materializes anything (unlike
    /// [`Self::size`] with shortcuts, which walks every occurrence).
    pub fn resident_size(&self) -> GraphSize {
        GraphSize {
            shortcut_stmts: self.shortcuts.materialized_stmts.load(Ordering::Relaxed),
            ..self.size(false)
        }
    }

    /// Expands occurrence `occ` into `stmts`/`frontier`: its statement, all
    /// statically-resolved upstream statements at the same timestamp, and
    /// the dynamic resolution points. Static edges point strictly backward
    /// within a node, so recursion terminates.
    fn closure(
        &self,
        occ: u32,
        stmts: &mut FastSet<StmtId>,
        frontier: &mut FastSet<Frontier>,
        cd_seen: &mut FastSet<u32>,
    ) {
        if !stmts.insert(self.stmt_of(occ)) {
            // Already expanded: closures stay within one node, where each
            // statement has exactly one occurrence.
            return;
        }
        for (k, res) in self.nodes.use_res[occ as usize].iter().enumerate() {
            let k = k as u8;
            if !self.dyn_edges(occ, k).is_empty() {
                frontier.insert(Frontier::Use(occ, k));
                continue;
            }
            match *res {
                UseRes::StaticDu { target, .. } => {
                    self.closure(target, stmts, frontier, cd_seen);
                }
                UseRes::StaticUu { target, use_idx, .. } => {
                    self.uu_closure(target, use_idx, stmts, frontier, cd_seen);
                }
                UseRes::Dynamic | UseRes::NoDep => {}
            }
        }
        let key = self.nodes.occ_block_key[occ as usize];
        if cd_seen.insert(key) {
            if !self.cd_edges(key).is_empty() {
                frontier.insert(Frontier::Cd(occ));
            } else {
                match self.nodes.cd_res[occ as usize] {
                    CdRes::Static { target, delta: 0, .. } => {
                        self.closure(target, stmts, frontier, cd_seen);
                    }
                    CdRes::Static { target, delta, .. } => {
                        frontier.insert(Frontier::Jump(target, delta));
                    }
                    CdRes::Dynamic => {}
                }
            }
        }
    }

    /// Chases a use-use chain without adding the intermediate statement.
    fn uu_closure(
        &self,
        occ: u32,
        k: u8,
        stmts: &mut FastSet<StmtId>,
        frontier: &mut FastSet<Frontier>,
        cd_seen: &mut FastSet<u32>,
    ) {
        if !self.dyn_edges(occ, k).is_empty() {
            frontier.insert(Frontier::Use(occ, k));
            return;
        }
        match self.nodes.use_res[occ as usize][k as usize] {
            UseRes::StaticDu { target, .. } => self.closure(target, stmts, frontier, cd_seen),
            UseRes::StaticUu { target, use_idx, .. } => {
                self.uu_closure(target, use_idx, stmts, frontier, cd_seen)
            }
            UseRes::Dynamic | UseRes::NoDep => {}
        }
    }

    /// Size under the representation cost model (`with_shortcuts` adds the
    /// shortcut skip lists for every occurrence).
    pub fn size(&self, with_shortcuts: bool) -> GraphSize {
        let mut s = GraphSize {
            nodes: self.nodes.nodes.len() as u64,
            slots: self.nodes.num_occs() as u64,
            ..GraphSize::default()
        };
        for res in &self.nodes.use_res {
            for r in res {
                if matches!(r, UseRes::StaticDu { .. } | UseRes::StaticUu { .. }) {
                    s.static_edges += 1;
                }
            }
        }
        // Control: one static edge per block occurrence, not per statement,
        // judged at the block's key — its first occurrence.
        for (occ, &key) in self.nodes.occ_block_key.iter().enumerate() {
            if key as usize == occ
                && matches!(self.nodes.cd_res[occ], CdRes::Static { .. })
            {
                s.static_edges += 1;
            }
        }
        s.dynamic_edges = (self.data_dyn.num_edges() + self.cd_dyn.num_edges()) as u64;
        s.pairs = self.channels.iter().map(|c| c.len() as u64).sum();
        if with_shortcuts {
            for occ in 0..self.nodes.num_occs() as u32 {
                s.shortcut_stmts += self.shortcut(occ).skip_stmts();
            }
        }
        s
    }

    /// The final defining instance of `cell`, if any (slice criterion).
    pub fn last_def_of(&self, cell: Cell) -> Option<(u32, u64)> {
        self.last_def.get(&cell).copied()
    }

    /// Compares every materialized component of two graphs — channel
    /// tables, dynamic edge rows, last-defs, outputs, statistics —
    /// returning the name of the first differing component, or `None` if
    /// the graphs are bit-identical. This is the oracle the snapshot
    /// round-trip tests and the snapshot-load bench use; it deliberately
    /// ignores the lazily-populated shortcut memo, which is derived state.
    #[must_use]
    pub fn first_difference(&self, other: &Self) -> Option<&'static str> {
        if self.channels != other.channels {
            return Some("channels");
        }
        if self.data_dyn != other.data_dyn {
            return Some("data_dyn");
        }
        if self.cd_dyn != other.cd_dyn {
            return Some("cd_dyn");
        }
        if self.last_def != other.last_def {
            return Some("last_def");
        }
        if self.outputs != other.outputs {
            return Some("outputs");
        }
        if self.stats != other.stats {
            return Some("stats");
        }
        if self.num_node_execs != other.num_node_execs {
            return Some("num_node_execs");
        }
        None
    }
}

#[derive(Clone, Copy, Debug, Default)]
struct FrameState {
    node: u32,
    ts: u64,
    /// Global occurrence index of the current block slot's first statement.
    block_occ_base: u32,
    /// Occurrence of a call statement awaiting its callee's return.
    pending_call: u32,
}

/// The dynamic-label store: channels, the dynamic edge maps and the
/// label-sharing channel assignments. The maps serve the insert path only;
/// [`CompactGraph::assemble`] lays them out as [`EdgeRows`]. Channel
/// indices are assigned in first-discovery order and identical consecutive
/// pairs on a channel are stored once, so the exact same *sequence* of
/// `record_*_pair` calls yields the exact same store — which is what the
/// pinned snapshot digests of the suite builds rely on.
#[derive(Debug, Default)]
struct DynStore {
    channels: Vec<Vec<(u64, u64)>>,
    data_dyn: FastMap<(u32, u8), Vec<(u32, u32)>>,
    cd_dyn: FastMap<u32, Vec<(u32, u32)>>,
    /// Sharing group -> channel, per `(group, def node, use node)`: label
    /// sharing is only valid between edges connecting the *same pair of
    /// node copies* (specialization gives statements multiple occurrences,
    /// and a statement-keyed channel would let the wrong copy claim a
    /// label).
    group_chan: FastMap<(u32, u32, u32), u32>,
}

impl DynStore {
    fn new_channel(&mut self) -> u32 {
        self.channels.push(Vec::new());
        self.channels.len() as u32 - 1
    }

    /// Channel for a dynamic data edge, honoring the sharing plan.
    fn data_chan(&mut self, nodes: &NodeGraph, occ: u32, k: u8, target: u32) -> u32 {
        if let Some(edges) = self.data_dyn.get(&(occ, k)) {
            if let Some(&(_, chan)) = edges.iter().find(|(t, _)| *t == target) {
                return chan;
            }
        }
        let chan = if target != NONE_TARGET {
            let key = (
                nodes.occ_stmt[occ as usize],
                k,
                nodes.occ_stmt[target as usize],
            );
            match nodes.share_data.get(&key).copied() {
                Some(group) => {
                    let pair = (
                        group,
                        nodes.occ_node[target as usize],
                        nodes.occ_node[occ as usize],
                    );
                    if let Some(&c) = self.group_chan.get(&pair) {
                        c
                    } else {
                        let c = self.new_channel();
                        self.group_chan.insert(pair, c);
                        c
                    }
                }
                None => self.new_channel(),
            }
        } else {
            self.new_channel()
        };
        self.data_dyn.entry((occ, k)).or_default().push((target, chan));
        chan
    }

    /// Channel for a dynamic control edge, honoring the OPT-6 plan.
    fn cd_chan(&mut self, nodes: &NodeGraph, key_occ: u32, target: u32) -> u32 {
        if let Some(edges) = self.cd_dyn.get(&key_occ) {
            if let Some(&(_, chan)) = edges.iter().find(|(t, _)| *t == target) {
                return chan;
            }
        }
        let chan = if target != NONE_TARGET {
            let key = (
                nodes.occ_block_term[key_occ as usize],
                nodes.occ_stmt[target as usize],
            );
            match nodes.share_cd.get(&key).copied() {
                Some(group) => {
                    let pair = (
                        group,
                        nodes.occ_node[target as usize],
                        nodes.occ_node[key_occ as usize],
                    );
                    if let Some(&c) = self.group_chan.get(&pair) {
                        c
                    } else {
                        let c = self.new_channel();
                        self.group_chan.insert(pair, c);
                        c
                    }
                }
                None => self.new_channel(),
            }
        } else {
            self.new_channel()
        };
        self.cd_dyn.entry(key_occ).or_default().push((target, chan));
        chan
    }

    /// Appends a pair, deduplicating identical consecutive pairs on shared
    /// channels; returns whether the pair was newly stored.
    fn append(&mut self, chan: u32, pair: (u64, u64)) -> bool {
        let ch = &mut self.channels[chan as usize];
        if ch.last() == Some(&pair) {
            false
        } else {
            ch.push(pair);
            true
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the use-event tuple end to end
    fn record_data_pair(
        &mut self,
        nodes: &NodeGraph,
        stats: &mut BuildStats,
        occ: u32,
        k: u8,
        target: u32,
        td: u64,
        tu: u64,
    ) {
        let chan = self.data_chan(nodes, occ, k, target);
        if self.append(chan, (td, tu)) {
            stats.stored_data_pairs += 1;
        } else {
            stats.save(OptKind::SharedData);
        }
    }

    fn record_cd_pair(
        &mut self,
        nodes: &NodeGraph,
        stats: &mut BuildStats,
        key_occ: u32,
        target: u32,
        tp: u64,
        tc: u64,
    ) {
        let chan = self.cd_chan(nodes, key_occ, target);
        if self.append(chan, (tp, tc)) {
            stats.stored_control_pairs += 1;
        } else {
            stats.save(OptKind::SharedControl);
        }
    }
}

struct Builder<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    nodes: &'p NodeGraph,
    store: DynStore,
    stats: BuildStats,
    last_def: HashMap<Cell, (u32, u64)>,
    outputs: Vec<(u32, u64)>,
    assigns: Vec<Assign>,
    assign_pos: usize,
    next_ts: u64,
    /// Last definition of every memory cell. Cells are addresses the
    /// traced program computes, so this map keeps std's SipHash (see
    /// [`crate::fast_hash`]).
    mem: HashMap<Cell, (u32, u64)>,
    /// The returning instance of the activation that just exited, taken by
    /// its caller's `call_returned`.
    last_ret: Option<(u32, u64)>,
    /// The activation stack, innermost last. Replay callbacks always name
    /// the innermost activation ([`top`] asserts it), so per-frame state
    /// is a stack slot rather than a map keyed by [`FrameId`].
    frames: Vec<FrameInfo>,
    /// Exited activations, kept for their buffers: each activation entered
    /// takes one over.
    spare: Vec<FrameInfo>,
}

/// The shadow state of one live activation.
struct FrameInfo {
    frame: FrameId,
    state: FrameState,
    /// The call statement instance that created this activation (none for
    /// the entry activation): the control parent of blocks with no
    /// executed ancestor.
    call_site: Option<(u32, u64)>,
    /// Last definition of each variable slot of the function.
    vars: Vec<Option<(u32, u64)>>,
    /// Last execution of each block: `(terminator occurrence, ts, seq)`.
    last_exec: Vec<Option<(u32, u64, u64)>>,
    /// Per-frame block sequence counter (recency tie-breaker matching FP).
    seq: u64,
    /// Memoized actual resolutions of memory uses in the current node
    /// instance, for use-use verification.
    memo: FastMap<(u32, u8), Option<(u32, u64)>>,
    /// The instance of the `return` this activation executed, if any.
    ret: Option<(u32, u64)>,
}

impl FrameInfo {
    /// A new activation of a function with `num_vars` variable slots and
    /// `num_blocks` blocks, created by the call instance `call_site`. It
    /// takes over the buffers of `spare`, an exited activation, if given;
    /// every field is set here, so none of that activation's state
    /// survives.
    fn new(
        frame: FrameId,
        num_vars: usize,
        num_blocks: usize,
        call_site: Option<(u32, u64)>,
        spare: Option<FrameInfo>,
    ) -> Self {
        let (mut vars, mut last_exec, mut memo) =
            spare.map_or_else(Default::default, |fi| (fi.vars, fi.last_exec, fi.memo));
        vars.clear();
        vars.resize(num_vars, None);
        last_exec.clear();
        last_exec.resize(num_blocks, None);
        memo.clear();
        FrameInfo {
            frame,
            state: FrameState::default(),
            call_site,
            vars,
            last_exec,
            seq: 0,
            memo,
            ret: None,
        }
    }
}

/// The innermost live activation, which must be `frame`.
///
/// # Panics
/// Panics if no activation is live or `frame` is not the innermost one:
/// the trace is out of sync with the replay.
#[inline]
fn top(frames: &mut [FrameInfo], frame: FrameId) -> &mut FrameInfo {
    let fi = frames.last_mut().expect("callback with no live frame");
    assert!(fi.frame == frame, "callback for {frame:?}, but {:?} is innermost", fi.frame);
    fi
}

impl Builder<'_> {
    fn record_data_pair(&mut self, occ: u32, k: u8, target: u32, td: u64, tu: u64) {
        self.store.record_data_pair(self.nodes, &mut self.stats, occ, k, target, td, tu);
    }

    fn record_cd_pair(&mut self, key_occ: u32, target: u32, tp: u64, tc: u64) {
        self.store.record_cd_pair(self.nodes, &mut self.stats, key_occ, target, tp, tc);
    }

    /// Processes one use site of the innermost activation: verify the
    /// static inference or record a dynamic label.
    fn handle_use(&mut self, occ: u32, k: u8, shape: &UseShape, cell: Option<Cell>, ts: u64) {
        let fi = self.frames.last_mut().expect("use in a live frame");
        let (actual, is_mem) = match shape {
            UseShape::Scalar(v) => (fi.vars[v.index()], false),
            UseShape::Mem => {
                let c = cell.expect("memory use has a traced cell");
                let actual = self.mem.get(&c).copied();
                fi.memo.insert((occ, k), actual);
                (actual, true)
            }
            UseShape::Ret => return, // resolved at call_returned
        };
        if actual.is_some() {
            self.stats.total_data += 1;
        }
        match self.nodes.use_res[occ as usize][k as usize] {
            UseRes::StaticDu { target, attr } => {
                if !is_mem {
                    // Scalars cannot alias; inference always holds.
                    self.stats.save(attr);
                } else if actual == Some((target, ts)) {
                    self.stats.save(attr);
                } else {
                    self.demote(occ, k, actual, ts);
                }
            }
            UseRes::StaticUu { target, use_idx, attr } => {
                if !is_mem {
                    self.stats.save(attr);
                } else {
                    let expected = fi.memo.get(&(target, use_idx)).copied().flatten();
                    if actual == expected {
                        self.stats.save(attr);
                    } else {
                        self.demote(occ, k, actual, ts);
                    }
                }
            }
            UseRes::Dynamic | UseRes::NoDep => {
                if let Some((docc, td)) = actual {
                    self.record_data_pair(occ, k, docc, td, ts);
                }
            }
        }
    }

    fn demote(&mut self, occ: u32, k: u8, actual: Option<(u32, u64)>, ts: u64) {
        self.stats.demoted += 1;
        match actual {
            Some((docc, td)) => self.record_data_pair(occ, k, docc, td, ts),
            None => self.record_data_pair(occ, k, NONE_TARGET, 0, ts),
        }
    }
}

impl ReplayVisitor for Builder<'_> {
    fn frame_enter(&mut self, frame: FrameId, func: FuncId, call: Option<(FrameId, StmtId)>) {
        let call_site = call.map(|(caller, _stmt)| {
            let ci = top(&mut self.frames, caller);
            (ci.state.pending_call, ci.state.ts)
        });
        let f = self.program.func(func);
        let spare = self.spare.pop();
        let mut fi = FrameInfo::new(frame, f.num_vars as usize, f.blocks.len(), call_site, spare);
        // Parameter passing: parameter slots are defined by the call
        // statement occurrence (see the FP builder for the rationale).
        fi.vars[..f.params as usize].fill(call_site);
        self.frames.push(fi);
    }

    fn block_enter(&mut self, frame: FrameId, func: FuncId, block: BlockId) {
        let assign = self.assigns[self.assign_pos];
        self.assign_pos += 1;
        let node_base = self.nodes.node_base[assign.node as usize];
        let slot_off = self.nodes.nodes[assign.node as usize].slot_offsets[assign.slot as usize];
        let ancestors = self.analysis.func(func).cd.ancestors(block);
        let fi = top(&mut self.frames, frame);
        if assign.start {
            fi.state.node = assign.node;
            fi.state.ts = self.next_ts;
            self.next_ts += 1;
            fi.memo.clear();
        }
        fi.state.block_occ_base = node_base + slot_off;
        // The dynamic control parent: the most recently executed ancestor,
        // else the call site.
        let parent = ancestors
            .iter()
            .filter_map(|a| fi.last_exec[a.index()])
            .max_by_key(|&(_, _, s)| s)
            .map(|(o, t, _)| (o, t))
            .or(fi.call_site);
        fi.seq += 1;
        let (seq, ts) = (fi.seq, fi.state.ts);
        // Record this block's execution for future parent lookups: its
        // terminator occurrence in the current node.
        let key_occ = node_base + slot_off;
        let term_occ = key_occ + self.program.func(func).block(block).stmts.len() as u32;
        fi.last_exec[block.index()] = Some((term_occ, ts, seq));
        self.stats.total_control += 1;
        match self.nodes.cd_res[key_occ as usize] {
            CdRes::Static { target, delta, attr } => {
                if ts >= delta && parent == Some((target, ts - delta)) {
                    self.stats.save(attr);
                } else {
                    self.stats.demoted += 1;
                    match parent {
                        Some((pocc, tp)) => self.record_cd_pair(key_occ, pocc, tp, ts),
                        None => self.record_cd_pair(key_occ, NONE_TARGET, 0, ts),
                    }
                }
            }
            CdRes::Dynamic => {
                if let Some((pocc, tp)) = parent {
                    self.record_cd_pair(key_occ, pocc, tp, ts);
                } else {
                    self.stats.total_control -= 1; // entry region: no dependence
                }
            }
        }
    }

    fn stmt(&mut self, cx: StmtCx) {
        let fi = top(&mut self.frames, cx.frame);
        let (base, ts) = (fi.state.block_occ_base, fi.state.ts);
        let idx_in_block = match cx.pos {
            StmtPos::Stmt(i) => i,
            StmtPos::Term => self.program.func(cx.func).block(cx.block).stmts.len() as u32,
        };
        let occ = base + idx_in_block;
        debug_assert_eq!(self.nodes.occ_stmt[occ as usize], cx.stmt, "occurrence out of sync");

        let nodes = self.nodes;
        for (k, shape) in nodes.stmt_shapes[cx.stmt.index()].iter().enumerate() {
            self.handle_use(occ, k as u8, shape, cx.cell, ts);
        }

        let fi = self.frames.last_mut().expect("checked above");
        if cx.is_call {
            fi.state.pending_call = occ;
            return;
        }
        match cx.pos {
            StmtPos::Stmt(_) => {
                match self.program.stmt_kind(cx.stmt) {
                    Some(StmtKind::Assign { dst, .. }) => {
                        fi.vars[dst.index()] = Some((occ, ts));
                    }
                    Some(StmtKind::Store { .. }) => {
                        let cell = cx.cell.expect("store has a traced cell");
                        self.mem.insert(cell, (occ, ts));
                        self.last_def.insert(cell, (occ, ts));
                    }
                    Some(StmtKind::Print(_)) => {
                        self.outputs.push((occ, ts));
                    }
                    None => unreachable!("plain statement"),
                }
            }
            StmtPos::Term => {
                if matches!(
                    self.program.terminator_of(cx.stmt),
                    Some(Terminator::Return(_))
                ) {
                    fi.ret = Some((occ, ts));
                }
            }
        }
    }

    fn call_returned(&mut self, frame: FrameId, _func: FuncId, _block: BlockId, stmt: StmtId) {
        let fi = top(&mut self.frames, frame);
        let (occ, ts) = (fi.state.pending_call, fi.state.ts);
        if let Some(StmtKind::Assign { dst, .. }) = self.program.stmt_kind(stmt) {
            fi.vars[dst.index()] = Some((occ, ts));
        }
        // The Ret use site is the last use slot of the call statement.
        let k = (self.nodes.stmt_shapes[stmt.index()].len() - 1) as u8;
        if let Some((rocc, tr)) = self.last_ret.take() {
            self.stats.total_data += 1;
            self.record_data_pair(occ, k, rocc, tr, ts);
        }
    }

    fn frame_exit(&mut self, frame: FrameId) {
        top(&mut self.frames, frame);
        let fi = self.frames.pop().expect("checked above");
        self.last_ret = fi.ret;
        self.spare.push(fi);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_compact, FullGraph, OptConfig, SpecPolicy};
    use dynslice_runtime::{run, VmOptions};

    /// The shortcut walk without its per-query dedupe: every frontier
    /// entry of every visited instance is resolved, and every visited
    /// instance adds its closure's statements.
    fn slice_every_entry(g: &CompactGraph, occ: u32, ts: u64) -> (BTreeSet<StmtId>, TraversalStats) {
        let mut stats = TraversalStats::default();
        let mut labels = Resident(&g.channels);
        let mut slice = BTreeSet::new();
        let mut visited = std::collections::HashSet::new();
        let mut work = vec![(occ, ts)];
        while let Some((occ, ts)) = work.pop() {
            if !visited.insert((occ, ts)) {
                continue;
            }
            stats.instances_visited += 1;
            let sc = g.shortcut_counted(occ, &mut stats);
            slice.extend(&sc.stmts);
            for f in &sc.frontier {
                let next = match *f {
                    Frontier::Use(o, k) => g.resolve_use(&mut labels, o, k, ts, &mut stats),
                    Frontier::Cd(o) => g.resolve_cd(&mut labels, o, ts, &mut stats),
                    Frontier::Jump(target, delta) => Ok((ts >= delta).then(|| (target, ts - delta))),
                };
                work.extend(next.unwrap_or_else(|never: Infallible| match never {}));
            }
        }
        (slice, stats)
    }

    /// Each loop iteration is one node instance, and `s` and `t` both use
    /// `x`, which loads a dynamically labeled array cell. `s` and `t` carry
    /// across iterations, so a slice visits both statements' instances at
    /// each iteration's timestamp, and both closures hold `x`'s labeled
    /// use. The walk resolves that use once per timestamp: the same slice
    /// and instances as resolving it per instance (and as FP), with fewer
    /// label searches.
    #[test]
    fn shared_frontier_entries_resolve_once_per_timestamp() {
        let src = "global int a[8];
             global int out[2];
             fn main() {
               int i;
               int s = 0;
               int t = 1;
               for (i = 0; i < 48; i = i + 1) {
                 a[(i * 5) % 8] = a[i % 8] + i;
                 int x = a[(i * 3) % 8];
                 s = s + x;
                 t = t * 3 + x;
               }
               out[0] = s;
               out[1] = t;
               print s + t;
             }";
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let full = FullGraph::build(&p, &a, &t.events);
        let g = build_compact(&p, &a, &t.events, &OptConfig::default());
        let (fs, fts) = *full.outputs.last().expect("one print");
        let (occ, ts) = *g.outputs.last().expect("one print");
        let (want, every) = slice_every_entry(&g, occ, ts);
        let (got, once) = g.slice_with_stats(occ, ts, true);
        assert_eq!(got, want);
        assert_eq!(got, full.slice(&p, fs, fts), "FP's slice");
        assert_eq!(once.instances_visited, every.instances_visited);
        assert_eq!(once.shortcut_hits + once.shortcuts_materialized, once.instances_visited);
        assert!(
            once.label_searches < every.label_searches,
            "{} searches, {} without the dedupe",
            once.label_searches,
            every.label_searches
        );
        // A timestamp too large to pack memo keys with walks on pair keys.
        let far = u64::MAX - 1;
        let (want, every) = slice_every_entry(&g, occ, far);
        let (got, once) = g.slice_with_stats(occ, far, true);
        assert_eq!((got, once.instances_visited), (want, every.instances_visited));
    }

    /// A memo whose ids and timestamps cannot share a word keeps `(id,
    /// ts)` pairs, and either form answers "done before?" the same way.
    #[test]
    fn walk_memo_packs_keys_only_when_they_fit() {
        let mut packed = WalkMemo::new(10, 100, 0);
        let mut pairs = WalkMemo::new(u64::MAX / 2, 3, 0);
        assert!(matches!(packed, WalkMemo::Packed { .. }));
        assert!(matches!(pairs, WalkMemo::Pairs(_)));
        for memo in [&mut packed, &mut pairs] {
            assert!(memo.insert(1, 2));
            assert!(memo.insert(2, 1));
            assert!(!memo.insert(1, 2));
            assert!(memo.insert(0, 2));
            assert_eq!(memo.len(), 3);
        }
    }

    /// The builder's activation stack isolates frames, and a stack slot
    /// an activation reuses keeps nothing of the one that left it.
    ///
    /// * `f` recurses, so caller and callee share every variable slot: each
    ///   callee writes its own `x` and returns, then the caller reads its
    ///   own. `f`'s `n` is slot 0 like `main`'s `x`, and `f` writes it
    ///   before `main` prints its `x`.
    /// * `f(1)` from `main` reuses the slot `f(4)` left. Its `t` has no
    ///   definition (only `n > 2` defines it), and its loop header's first
    ///   entry has no executed control ancestor in the activation. A slot
    ///   that kept `f(4)`'s variables would put `t = 100` into the slices of
    ///   `out[0]`, `out[1]` and `b`; one that kept its block history would
    ///   put `f(4)`'s caller, `int a = f(x)`, there. The FP oracle has
    ///   neither. (The use-use memo is reset on reuse too, but every memo
    ///   read follows a write in the same node instance, so no slice can
    ///   see it.)
    #[test]
    fn activation_stack_isolates_recursive_frames() {
        let src = "global int out[8];
             fn f(int n) -> int {
               int x = n;
               int t;
               int i;
               if (n > 2) { t = 100; }
               for (i = 0; i < n; i = i + 1) { x = x + i; }
               if (n > 0) { x = x + f(n - 1); }
               if (n < 2) { out[n] = x + t; }
               n = n + 1;
               return x;
             }
             fn main() {
               int x = 4;
               int a = f(x);
               int b = f(1);
               print x;
               print a;
               print b;
             }";
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        assert_eq!(t.frames, 1 + 5 + 2, "main, f(4)..f(0), f(1)..f(0)");
        let full = FullGraph::build(&p, &a, &t.events);
        let configs = [
            OptConfig::default(),
            OptConfig::none(),
            OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
        ];
        for config in &configs {
            let opt = build_compact(&p, &a, &t.events, config);
            assert_eq!(full.last_def.len(), opt.last_def.len(), "defined cells");
            for (&cell, &(fs, fts)) in &full.last_def {
                let fp = full.slice(&p, fs, fts);
                let (occ, ts) = opt.last_def_of(cell).expect("cell defined in OPT too");
                for shortcuts in [false, true] {
                    assert_eq!(fp, opt.slice(occ, ts, shortcuts), "{cell:?} {shortcuts} {config:?}");
                }
            }
            assert_eq!(full.outputs.len(), opt.outputs.len(), "outputs");
            for (i, (&(fs, fts), &(occ, ts))) in full.outputs.iter().zip(&opt.outputs).enumerate() {
                let fp = full.slice(&p, fs, fts);
                for shortcuts in [false, true] {
                    assert_eq!(fp, opt.slice(occ, ts, shortcuts), "output {i} {shortcuts} {config:?}");
                }
            }
        }
    }

    /// Every materialized closure lists its statements and frontier
    /// sorted: the walk pushes successors in frontier order, so sorted
    /// frontiers make walks, and paged page-access order, deterministic.
    #[test]
    fn materialized_closures_are_sorted() {
        let p = dynslice_lang::compile(
            "global int a[8];
             fn main() {
               int i;
               int s = 0;
               for (i = 0; i < 64; i = i + 1) {
                 a[i % 8] = a[(i + 3) % 8] + i;
                 if (a[i % 8] % 3 == 0) { s = s + a[i % 8]; } else { s = s - 1; }
               }
               print s;
             }",
        )
        .unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let g = build_compact(&p, &a, &t.events, &OptConfig::default());
        g.size(true); // materializes every closure
        let mut frontiers = 0;
        for slot in &g.shortcuts.slots {
            let sc = slot.get().expect("size(true) materializes every closure");
            assert!(sc.stmts.windows(2).all(|w| w[0] < w[1]), "{:?}", sc.stmts);
            assert!(sc.frontier.windows(2).all(|w| w[0] < w[1]), "{:?}", sc.frontier);
            frontiers += usize::from(sc.frontier.len() > 1);
        }
        assert!(frontiers > 0, "no closure has two frontier entries to order");
    }
}
