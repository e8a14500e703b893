//! The compacted dynamic dependence graph (the paper's OPT representation)
//! — dynamic component, slicing traversal and shortcut edges.
//!
//! The builder replays the trace over the static [`NodeGraph`], reading the
//! build-only [`BuildPlan`] beside it and dropping that when it is done: every
//! dependence instance whose timestamps the static component can *infer* is
//! verified against the actual shadow-map resolution and costs nothing;
//! instances the static component cannot infer (or whose inference fails
//! verification — the aliasing cases of OPT-1b) get explicit timestamp
//! pairs on dynamic edges. Label lists (channels, while the graph is built)
//! may be shared between edges per the OPT-3/OPT-6 plan; identical
//! consecutive pairs on a shared list are stored once.
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
//! * the labels are one arena ([`Labels`]) of runs sorted by use
//!   timestamp. A row's own labels form one run, each stored definition
//!   timestamp carrying in its top 16 bits the index of the edge that owns
//!   it, so resolving a use or a block's control dependence is one binary
//!   search: no two edges of a row hold the same use timestamp. Only a
//!   channel that more than one edge references (OPT-3/OPT-6 sharing) keeps
//!   a run of its own, searched after the row's own run;
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
//! Nothing the builder does per block, use or store hashes, except a
//! memory use or store at an offset of 4,096 or more:
//!
//! * replay callbacks always name the innermost activation, so per-frame
//!   shadow state is an activation stack, not maps keyed by [`FrameId`].
//!   Each frame holds its variables' last definitions indexed by variable
//!   slot, its blocks' last executions indexed by block id, its call site,
//!   its returned instance, and its use-use memo indexed by use slot within
//!   the current node ([`UseMemo`]). An exited frame's buffers go to the
//!   next frame entered;
//! * the memory shadow ([`MemShadow`]) keeps each instance's offsets below
//!   4,096 in 64-cell pages allocated on the first store, found through a
//!   per-instance page table; only higher offsets go to a SipHash map, so
//!   its memory follows the stores, not the offsets. `last_def` is read
//!   off it once, when the build ends;
//! * the dynamic-label store keeps one edge list per use slot and per
//!   block key, and its labels as one log of pairs in arrival order,
//!   sized from the trace, which becomes the [`Labels`] runs in place;
//!   the per-optimization counters of [`BuildStats`] are an array;
//! * segmentation ([`segment`]) reads the Ball–Larus tracker's per-block
//!   tables and keeps no block list per path.

use std::collections::{BTreeSet, HashMap};
use std::convert::Infallible;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;

use dynslice_analysis::ProgramAnalysis;
use dynslice_ir::{BlockId, FuncId, Program, StmtId, StmtKind, StmtPos, Terminator};
use dynslice_profile::ProgramPaths;
use dynslice_runtime::{replay, Cell, FrameId, ReplayVisitor, StmtCx, TraceEvent};

use crate::fast_hash::{FastMap, FastSet};
use crate::nodes::{BuildPlan, CdRes, NodeGraph, UseRes, UseShape};
use crate::segment::{segment, Assign};
use crate::size::{BuildStats, GraphSize, OptKind};

/// Sentinel "no definition" dynamic-edge target.
pub(crate) const NONE_TARGET: u32 = u32::MAX;

/// The compacted dyDG, ready for slicing.
#[derive(Debug)]
pub struct CompactGraph {
    /// The static component.
    pub nodes: NodeGraph,
    /// Timestamp-pair runs in one arena; shared lists appear once.
    pub(crate) labels: Labels,
    /// Dynamic data edges, one row of `(target, run)` per use slot
    /// ([`crate::nodes::UseRows::slot`]).
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

/// The row a dynamic edge hangs off.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EdgeRow {
    /// Use slot `k` of occurrence `occ`: a data edge.
    Use(u32, u8),
    /// The block whose key occurrence this is: a control edge.
    Control(u32),
}

/// One dynamic edge and its labels ([`CompactGraph::edge_labels`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DynEdge {
    /// The row the edge hangs off.
    pub row: EdgeRow,
    /// The defining (data) or parent (control) occurrence; `u32::MAX`: none.
    pub target: u32,
    /// The edge's `(use timestamp, definition timestamp)` pairs, ascending.
    pub labels: Vec<(u64, u64)>,
}

/// Where a slicing traversal finds dynamic labels: run `run`'s timestamp
/// pairs, sorted by use timestamp. The resident arena never fails; the
/// paged hybrid's page cache fails with an I/O error.
pub(crate) trait LabelSearch {
    /// Why a lookup can fail.
    type Error;

    /// The stored definition timestamp, owner bits included ([`unpack`]),
    /// paired with use timestamp `tu` in run `run`, if the run holds one.
    fn search(&mut self, run: u32, tu: u64) -> Result<Option<u64>, Self::Error>;
}

/// A stored definition timestamp keeps the timestamp in its low 48 bits
/// (timestamps count node executions, far fewer) and its owner index in
/// the top 16: a row with more own edges than that gets a run per
/// [`MAX_OWNERS`].
pub(crate) const TS_LIMIT: u64 = 1 << 48;
const MAX_OWNERS: usize = 1 << 16;

/// A stored definition timestamp's `(owner index, timestamp)`.
#[inline]
pub(crate) fn unpack(td: u64) -> (usize, u64) {
    ((td >> 48) as usize, td & (TS_LIMIT - 1))
}

/// The first index of a run's pairs that does not follow its predecessor,
/// if any. Use timestamps ascend, and repeat only as the same stored pair:
/// a shared channel logs a pair again when a call splits the uses that
/// share it ([`DynStore::append`] drops only a pair that directly repeats),
/// and both copies are one label, so a binary search may hit either.
pub(crate) fn misordered(tu: &[u64], td: &[u64]) -> Option<usize> {
    (1..tu.len()).find(|&i| tu[i - 1] > tu[i] || (tu[i - 1] == tu[i] && td[i - 1] != td[i]))
}

/// Every run's timestamp pairs in one arena, as two parallel columns: run
/// `r` is `start[r]..start[r + 1]` of `tu` (use timestamps, ascending
/// within the run, see [`misordered`]) and `td` (the paired definition timestamps,
/// each with its owner index in the top 16 bits, see [`unpack`]). A search
/// is one binary search over contiguous use timestamps, and the whole
/// arena is three allocations. The snapshot reader checks what it reads.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Labels {
    /// Run offsets into the columns; one more entry than runs.
    pub(crate) start: Vec<u64>,
    pub(crate) tu: Vec<u64>,
    pub(crate) td: Vec<u64>,
}

impl Labels {
    /// Lays the builder's pair log out as the arena, in place: `tu`, `td`
    /// and `chan` list every stored pair in arrival order, `chan` naming
    /// its channel, which `plan` places in a run. Each pair moves once, to
    /// its run's range, keeping arrival order within the run, with its
    /// owner packed into its `td`. A row's pairs arrive in use-timestamp
    /// order, so only a run that arrived out of order (return-value edges
    /// append late under recursion) is then sorted. The log's columns
    /// become the arena's, so no second copy of the labels is ever live.
    ///
    /// # Panics
    /// Panics if a definition timestamp does not fit 48 bits, or if a run
    /// holds a use timestamp in two different pairs: two edges of one row
    /// would then hold it.
    fn from_log(mut tu: Vec<u64>, mut td: Vec<u64>, mut chan: Vec<u32>, plan: &RunPlan) -> Self {
        let (place, num_runs) = (&plan.place, plan.num_runs as usize);
        let mut start = vec![0u64; num_runs + 1];
        for &c in &chan {
            start[place[c as usize].0 as usize + 1] += 1;
        }
        for r in 0..num_runs {
            start[r + 1] += start[r];
        }
        // `chan` becomes each pair's arena position; the permutation is
        // then applied one cycle at a time.
        let mut next = start[..num_runs].to_vec();
        for (c, d) in chan.iter_mut().zip(&mut td) {
            let (run, owner) = place[*c as usize];
            assert!(*d < TS_LIMIT, "definition timestamp {d} does not fit 48 bits");
            *d |= u64::from(owner) << 48;
            let pos = &mut next[run as usize];
            *c = u32::try_from(*pos).expect("label pairs fit u32 positions");
            *pos += 1;
        }
        drop(next);
        let dest = &mut chan;
        for i in 0..dest.len() {
            while dest[i] as usize != i {
                let j = dest[i] as usize;
                dest.swap(i, j);
                tu.swap(i, j);
                td.swap(i, j);
            }
        }
        drop(chan);
        let mut pairs = Vec::new();
        for w in start.windows(2) {
            let r = w[0] as usize..w[1] as usize;
            if misordered(&tu[r.clone()], &td[r.clone()]).is_none() {
                continue;
            }
            pairs.clear();
            pairs.extend(tu[r.clone()].iter().copied().zip(td[r.clone()].iter().copied()));
            pairs.sort_unstable();
            for (k, &(u, d)) in r.clone().zip(&pairs) {
                tu[k] = u;
                td[k] = d;
            }
            let ordered = misordered(&tu[r.clone()], &td[r]).is_none();
            assert!(ordered, "two edges of one row hold the same use timestamp");
        }
        tu.shrink_to_fit();
        td.shrink_to_fit();
        Labels { start, tu, td }
    }

    pub(crate) fn num_runs(&self) -> usize {
        self.start.len() - 1
    }

    /// Run `run`'s pairs as arena offsets `(first, end)`; these stay valid
    /// once the columns are drained ([`CompactGraph::drain_labels`]).
    #[inline]
    pub(crate) fn bounds(&self, run: u32) -> (u64, u64) {
        let r = run as usize;
        (self.start[r], self.start[r + 1])
    }

    /// Run `run`'s use timestamps and stored definition timestamps.
    fn run(&self, run: u32) -> (&[u64], &[u64]) {
        let (a, b) = self.bounds(run);
        let r = a as usize..b as usize;
        (&self.tu[r.clone()], &self.td[r])
    }
}

/// OPT's labels: the arena held in memory.
struct Resident<'g>(&'g Labels);

impl LabelSearch for Resident<'_> {
    type Error = Infallible;

    #[inline]
    fn search(&mut self, run: u32, tu: u64) -> Result<Option<u64>, Infallible> {
        let (tus, tds) = self.0.run(run);
        Ok(tus.binary_search(&tu).ok().map(|i| tds[i]))
    }
}

/// Dynamic edge lists in compressed-sparse-row form: row `r`'s
/// `(target, run)` pairs are `edges[start[r]..start[r + 1]]`, so finding a
/// row is two slice indexings. Empty rows cost one offset. The edges of a
/// row that share a run are adjacent, and the run's stored pairs name
/// their owner by its index among them.
#[derive(Debug, Default, PartialEq, Eq)]
pub(crate) struct EdgeRows {
    /// Row offsets into `edges`; one more entry than there are rows.
    pub(crate) start: Vec<u32>,
    pub(crate) edges: Vec<(u32, u32)>,
}

impl EdgeRows {
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

/// Edge lists under construction for a fixed number of rows, most of
/// which stay empty: a row names its list once it gets a first edge, so an
/// empty row costs one `u32`.
#[derive(Debug)]
struct RowLists {
    list_of: Vec<u32>,
    lists: Vec<Vec<(u32, u32)>>,
}

impl RowLists {
    const EMPTY: u32 = u32::MAX;

    fn new(num_rows: usize) -> Self {
        RowLists { list_of: vec![Self::EMPTY; num_rows], lists: Vec::new() }
    }

    #[inline]
    fn row(&self, r: usize) -> &[(u32, u32)] {
        match self.list_of[r] {
            Self::EMPTY => &[],
            l => &self.lists[l as usize],
        }
    }

    fn push(&mut self, r: usize, edge: (u32, u32)) {
        if self.list_of[r] == Self::EMPTY {
            self.list_of[r] = self.lists.len() as u32;
            self.lists.push(Vec::new());
        }
        self.lists[self.list_of[r] as usize].push(edge);
    }
}

/// Where each channel's pairs go: channel `c` is owner `place[c].1` of
/// run `place[c].0`, one of `num_runs`.
struct RunPlan {
    place: Vec<(u32, u16)>,
    num_runs: u32,
}

impl RunPlan {
    /// Lays the builder's data and control rows out as [`EdgeRows`] of
    /// `(target, run)`, placing their `num_channels` channels. A row's own
    /// channels (referenced by one edge) come first, in discovery order,
    /// owners `0..` of one new run per [`MAX_OWNERS`] of them; then each
    /// shared channel, owner 0 of a run of its own, placed by the first row
    /// that reaches it.
    fn lay_out(num_channels: usize, lists: [&RowLists; 2]) -> (Self, [EdgeRows; 2]) {
        let mut refs = vec![0u32; num_channels];
        for &(_, c) in lists.iter().flat_map(|l| &l.lists).flatten() {
            refs[c as usize] += 1;
        }
        let (mut place, mut num_runs) = (vec![(u32::MAX, 0); num_channels], 0);
        let rows = lists.map(|rows| {
            let mut start = Vec::with_capacity(rows.list_of.len() + 1);
            start.push(0);
            let mut edges = Vec::with_capacity(rows.lists.iter().map(Vec::len).sum());
            for r in 0..rows.list_of.len() {
                let row = rows.row(r);
                for (k, &(target, c)) in row.iter().filter(|e| refs[e.1 as usize] == 1).enumerate() {
                    num_runs += u32::from(k % MAX_OWNERS == 0);
                    place[c as usize] = (num_runs - 1, (k % MAX_OWNERS) as u16);
                    edges.push((target, num_runs - 1));
                }
                for &(target, c) in row.iter().filter(|e| refs[e.1 as usize] > 1) {
                    if place[c as usize].0 == u32::MAX {
                        num_runs += 1;
                        place[c as usize] = (num_runs - 1, 0);
                    }
                    edges.push((target, place[c as usize].0));
                }
                start.push(u32::try_from(edges.len()).expect("dynamic edges fit u32 offsets"));
            }
            EdgeRows { start, edges }
        });
        (RunPlan { place, num_runs }, rows)
    }
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
    /// component and the build plan [`NodeGraph::build`] returned with it,
    /// which the build consumes: the graph keeps none of it.
    pub fn build(
        program: &Program,
        analysis: &ProgramAnalysis,
        paths: &ProgramPaths,
        nodes: NodeGraph,
        plan: BuildPlan,
        events: &[TraceEvent],
    ) -> Self {
        let assigns = segment(paths, &plan, events);
        let mut b = Builder {
            program,
            analysis,
            nodes: &nodes,
            plan: &plan,
            store: DynStore::new(nodes.use_res.num_slots(), nodes.num_occs(), events.len()),
            stats: BuildStats::default(),
            outputs: Vec::new(),
            assigns,
            assign_pos: 0,
            next_ts: 0,
            mem: MemShadow::default(),
            last_ret: None,
            frames: Vec::new(),
            spare: Vec::new(),
        };
        replay(program, events, &mut b);
        let ts = b.next_ts;
        let last_def = b.mem.last_defs();
        let (store, stats, outputs) = (b.store, b.stats, b.outputs);
        Self::assemble(nodes, store, stats, last_def, outputs, ts)
    }

    /// Assembles a graph from its built parts, laying the store's edge
    /// lists out as [`EdgeRows`] and its pair log as the [`Labels`] runs
    /// they name.
    fn assemble(
        nodes: NodeGraph,
        store: DynStore,
        stats: BuildStats,
        last_def: HashMap<Cell, (u32, u64)>,
        outputs: Vec<(u32, u64)>,
        num_node_execs: u64,
    ) -> Self {
        let DynStore { tu, td, chan, last, data_dyn: data, cd_dyn: cd, group_chan } = store;
        let (plan, [data_dyn, cd_dyn]) = RunPlan::lay_out(last.len(), [&data, &cd]);
        drop((last, data, cd, group_chan)); // the log alone becomes the arena
        let labels = Labels::from_log(tu, td, chan, &plan);
        Self::from_parts(nodes, labels, data_dyn, cd_dyn, last_def, outputs, stats, num_node_execs)
    }

    /// Reassembles a graph from final arenas — the builder's last step,
    /// and the snapshot reader's, which copies them as laid out in memory.
    /// `data_dyn` has one row per use slot of `nodes`
    /// ([`crate::nodes::UseRows::slot`]). The shortcut memo is derived
    /// state (excluded from [`CompactGraph::first_difference`]) and starts
    /// empty, as does the walk-memo high-water mark.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        nodes: NodeGraph,
        labels: Labels,
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
            labels,
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
        self.nodes.use_res.num_slots() as u64
    }

    /// Dynamic data edges of use `(occ, k)` as `(target, run)` pairs; `k`
    /// is one of `occ`'s use slots.
    #[inline]
    pub fn dyn_edges(&self, occ: u32, k: u8) -> &[(u32, u32)] {
        debug_assert!((k as usize) < self.nodes.use_res[occ as usize].len(), "use slot {k} of {occ}");
        self.data_dyn.row(self.nodes.use_res.slot(occ, k) as usize)
    }

    /// Dynamic control edges hanging off block-key occurrence `key`.
    #[inline]
    pub fn cd_edges(&self, key: u32) -> &[(u32, u32)] {
        self.cd_dyn.row(key as usize)
    }

    /// Every dynamic edge with its labels, in a form that does not depend
    /// on how the labels are stored: data rows by ascending use `(occ, k)`,
    /// then control rows by ascending block key; within a row, edges by
    /// target; each edge's `(tu, td)` pairs ascending. A label shared
    /// between edges is listed under each of them. The columns must be
    /// resident (not drained).
    pub fn edge_labels(&self) -> Vec<DynEdge> {
        let occs = 0..self.nodes.num_occs() as u32;
        let uses = |occ: u32| (0..self.nodes.use_res[occ as usize].len() as u8).map(move |k| (occ, k));
        let data = occs.clone().flat_map(uses).map(|(o, k)| (EdgeRow::Use(o, k), self.dyn_edges(o, k)));
        let cd = occs.map(|key| (EdgeRow::Control(key), self.cd_edges(key)));
        let mut out = Vec::new();
        for (row, edges) in data.chain(cd) {
            let (first, mut group) = (out.len(), 0);
            for (i, &(target, run)) in edges.iter().enumerate() {
                group = if edges[group].1 == run { group } else { i };
                let (tus, tds) = self.labels.run(run);
                let labels = tus.iter().zip(tds).map(|(&tu, &td)| (tu, unpack(td)));
                let labels = labels.filter(|&(_, (owner, _))| owner == i - group);
                let labels = labels.map(|(tu, (_, td))| (tu, td)).collect();
                out.push(DynEdge { row, target, labels });
            }
            out[first..].sort_unstable_by_key(|e| e.target);
        }
        out
    }

    /// Takes the label columns `(tu, td)` out of the graph, for spilling
    /// to disk — see [`crate::paged::PagedGraph`]. The channel offsets
    /// stay: they index the spilled arena as they did the resident one.
    pub(crate) fn drain_labels(&mut self) -> (Vec<u64>, Vec<u64>) {
        (std::mem::take(&mut self.labels.tu), std::mem::take(&mut self.labels.td))
    }

    /// Resolves dynamic edge row `row` at use timestamp `ts`: if a run of
    /// the row holds `ts`, `Some` of the owning edge's instance (`None` for
    /// an edge to no definition). Each run of the row is searched once.
    #[inline]
    fn resolve_row<L: LabelSearch>(
        labels: &mut L,
        row: &[(u32, u32)],
        ts: u64,
        stats: &mut TraversalStats,
    ) -> Result<Option<Option<(u32, u64)>>, L::Error> {
        let mut i = 0;
        while let Some(&(_, run)) = row.get(i) {
            stats.label_searches += 1;
            if let Some(td) = labels.search(run, ts)? {
                let (owner, td) = unpack(td);
                let target = row[i + owner].0;
                return Ok(Some((target != NONE_TARGET).then_some((target, td))));
            }
            i += row[i..].iter().take_while(|e| e.1 == run).count();
        }
        Ok(None)
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
        if let Some(def) = Self::resolve_row(labels, self.dyn_edges(occ, k), ts, stats)? {
            return Ok(def);
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
        if let Some(parent) = Self::resolve_row(labels, self.cd_edges(key), ts, stats)? {
            return Ok(parent);
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
        let mut labels = Resident(&self.labels);
        match self.slice_in(&mut labels, occ, ts, use_shortcuts, &mut stats) {
            Ok(slice) => (slice, stats),
            Err(never) => match never {},
        }
    }

    /// The one slicing traversal, over labels found through `labels`: the
    /// resident arena for OPT, the page cache for
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
        let mut slice = Bits::new(self.nodes.num_stmts);
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
        let mut slice = Bits::new(self.nodes.num_stmts);
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
                        let slot = self.nodes.use_res.slot(o, k);
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
        for r in self.nodes.use_res.all() {
            if matches!(r, UseRes::StaticDu { .. } | UseRes::StaticUu { .. }) {
                s.static_edges += 1;
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
        s.pairs = self.labels.tu.len() as u64;
        if with_shortcuts {
            for occ in 0..self.nodes.num_occs() as u32 {
                s.shortcut_stmts += self.shortcut(occ).skip_stmts();
            }
        }
        s
    }

    /// Use timestamps held more than once among the runs of one dynamic
    /// edge row, counted once per extra holder. A row takes the first of
    /// its runs that holds a timestamp, so their order changes no answer
    /// only while this is zero. A run that repeats a pair ([`misordered`])
    /// holds its timestamp once. The columns must be resident.
    pub fn shared_row_timestamps(&self) -> u64 {
        let mut tus = Vec::new();
        let mut shared = 0;
        let rows = self.data_dyn.rows().chain(self.cd_dyn.rows());
        for (_, row) in rows.filter(|(_, r)| r.len() > 1) {
            tus.clear();
            for (i, &(_, run)) in row.iter().enumerate() {
                if i == 0 || row[i - 1].1 != run {
                    tus.extend(self.labels.run(run).0.chunk_by(|a, b| a == b).map(|c| c[0]));
                }
            }
            tus.sort_unstable();
            shared += tus.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        }
        shared
    }

    /// The final defining instance of `cell`, if any (slice criterion).
    pub fn last_def_of(&self, cell: Cell) -> Option<(u32, u64)> {
        self.last_def.get(&cell).copied()
    }

    /// Compares every materialized component of two graphs — the static
    /// component, label runs, dynamic edge rows, last-defs, outputs,
    /// statistics — returning the name of the first differing component,
    /// or `None` if the graphs are bit-identical. This is the oracle the
    /// snapshot round-trip tests and the snapshot-load bench use; it
    /// deliberately ignores the lazily-populated shortcut memo, which is
    /// derived state.
    #[must_use]
    pub fn first_difference(&self, other: &Self) -> Option<&'static str> {
        if self.nodes != other.nodes {
            return Some("nodes");
        }
        if self.labels != other.labels {
            return Some("labels");
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
    ts: u64,
    /// First use slot of the current node: use slot `s` of the node is
    /// slot `s - use_slot0` of the frame's [`UseMemo`].
    use_slot0: u32,
    /// Global occurrence index of the current block slot's first statement.
    block_occ_base: u32,
    /// Occurrence of a call statement awaiting its callee's return.
    pending_call: u32,
}

/// The dynamic-label store: the pair log, the dynamic edge lists and the
/// label-sharing channel assignments. The log and lists serve the insert
/// path only; [`CompactGraph::assemble`] lays them out as [`EdgeRows`] and
/// the [`Labels`] runs. Channel indices are assigned in first-discovery order
/// and identical consecutive pairs on a channel are stored once, so the
/// exact same *sequence* of `record_*_pair` calls yields the exact same
/// store — which is what the pinned snapshot digests of the suite builds
/// rely on.
#[derive(Debug)]
struct DynStore {
    /// Every stored pair in arrival order: use timestamp, definition
    /// timestamp and channel, as three columns (20 bytes a pair), which
    /// [`Labels::from_log`] permutes into runs in place.
    tu: Vec<u64>,
    td: Vec<u64>,
    chan: Vec<u32>,
    /// Per channel, the log position of its last pair, or [`NO_PAIR`].
    last: Vec<usize>,
    /// Dynamic data edges `(target, channel)` of each use slot.
    data_dyn: RowLists,
    /// Dynamic control edges of each block-key occurrence.
    cd_dyn: RowLists,
    /// Sharing group -> channel, per `(group, def node, use node)`: label
    /// sharing is only valid between edges connecting the *same pair of
    /// node copies* (specialization gives statements multiple occurrences,
    /// and a statement-keyed channel would let the wrong copy claim a
    /// label). Consulted only when an edge is first discovered.
    group_chan: FastMap<(u32, u32, u32), u32>,
}

/// [`DynStore::last`] of a channel with no pairs yet.
const NO_PAIR: usize = usize::MAX;

impl DynStore {
    /// A store for a build of `num_events` trace events. The log starts
    /// with room for one pair per event: default builds of the suite
    /// programs (scale 0.3) store 0.48–0.87 pairs per event, so their log never
    /// reallocates (a reallocation leaves the old columns behind as freed
    /// heap), and capacity never written costs address space, not
    /// memory. A build with optimizations off stores about six pairs per
    /// event and grows the log as any `Vec` grows.
    fn new(num_use_slots: usize, num_occs: usize, num_events: usize) -> Self {
        DynStore {
            tu: Vec::with_capacity(num_events),
            td: Vec::with_capacity(num_events),
            chan: Vec::with_capacity(num_events),
            last: Vec::new(),
            data_dyn: RowLists::new(num_use_slots),
            cd_dyn: RowLists::new(num_occs),
            group_chan: FastMap::default(),
        }
    }

    fn new_channel(&mut self) -> u32 {
        self.last.push(NO_PAIR);
        self.last.len() as u32 - 1
    }

    /// Channel for a dynamic data edge out of use slot `slot` (use `k` of
    /// `occ`), honoring the sharing plan.
    fn data_chan(&mut self, cx: BuildCx<'_>, slot: usize, occ: u32, k: u8, target: u32) -> u32 {
        if let Some(&(_, chan)) = self.data_dyn.row(slot).iter().find(|(t, _)| *t == target) {
            return chan;
        }
        let (nodes, plan) = cx;
        let group = (target != NONE_TARGET).then(|| {
            let key = (nodes.occ_stmt[occ as usize], k, nodes.occ_stmt[target as usize]);
            plan.share_data.get(&key).copied()
        });
        let chan = self.group_channel(plan, group.flatten(), target, occ);
        self.data_dyn.push(slot, (target, chan));
        chan
    }

    /// Channel for a dynamic control edge, honoring the OPT-6 plan.
    fn cd_chan(&mut self, cx: BuildCx<'_>, key_occ: u32, target: u32) -> u32 {
        let edges = self.cd_dyn.row(key_occ as usize);
        if let Some(&(_, chan)) = edges.iter().find(|(t, _)| *t == target) {
            return chan;
        }
        let (nodes, plan) = cx;
        let group = (target != NONE_TARGET).then(|| {
            let key = (plan.occ_block_term[key_occ as usize], nodes.occ_stmt[target as usize]);
            plan.share_cd.get(&key).copied()
        });
        let chan = self.group_channel(plan, group.flatten(), target, key_occ);
        self.cd_dyn.push(key_occ as usize, (target, chan));
        chan
    }

    /// The channel of sharing group `group` between the nodes of `target`
    /// and `user`, made on first use, or a new channel of its own for an
    /// edge in no group.
    fn group_channel(&mut self, plan: &BuildPlan, group: Option<u32>, target: u32, user: u32) -> u32 {
        let Some(group) = group else { return self.new_channel() };
        let pair = (group, plan.occ_node[target as usize], plan.occ_node[user as usize]);
        if let Some(&c) = self.group_chan.get(&pair) {
            return c;
        }
        let c = self.new_channel();
        self.group_chan.insert(pair, c);
        c
    }

    /// Appends a pair, deduplicating identical consecutive pairs on shared
    /// channels; returns whether the pair was newly stored.
    fn append(&mut self, chan: u32, (td, tu): (u64, u64)) -> bool {
        let last = &mut self.last[chan as usize];
        if *last != NO_PAIR && self.tu[*last] == tu && self.td[*last] == td {
            false
        } else {
            *last = self.tu.len();
            self.tu.push(tu);
            self.td.push(td);
            self.chan.push(chan);
            true
        }
    }

    #[allow(clippy::too_many_arguments)] // mirrors the use-event tuple end to end
    fn record_data_pair(
        &mut self,
        cx: BuildCx<'_>,
        stats: &mut BuildStats,
        slot: usize,
        occ: u32,
        k: u8,
        target: u32,
        td: u64,
        tu: u64,
    ) {
        let chan = self.data_chan(cx, slot, occ, k, target);
        if self.append(chan, (td, tu)) {
            stats.stored_data_pairs += 1;
        } else {
            stats.save(OptKind::SharedData);
        }
    }

    fn record_cd_pair(
        &mut self,
        cx: BuildCx<'_>,
        stats: &mut BuildStats,
        key_occ: u32,
        target: u32,
        tp: u64,
        tc: u64,
    ) {
        let chan = self.cd_chan(cx, key_occ, target);
        if self.append(chan, (tp, tc)) {
            stats.stored_control_pairs += 1;
        } else {
            stats.save(OptKind::SharedControl);
        }
    }
}

/// The static component being built over and the build plan beside it.
type BuildCx<'p> = (&'p NodeGraph, &'p BuildPlan);

struct Builder<'p> {
    program: &'p Program,
    analysis: &'p ProgramAnalysis,
    nodes: &'p NodeGraph,
    plan: &'p BuildPlan,
    store: DynStore,
    stats: BuildStats,
    outputs: Vec<(u32, u64)>,
    assigns: Vec<Assign>,
    assign_pos: usize,
    next_ts: u64,
    /// Last definition of every memory cell.
    mem: MemShadow,
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

/// Cells per [`MemShadow`] page.
const SHADOW_PAGE: usize = 64;
/// Pages an instance's page table spans: offsets below
/// `SHADOW_PAGE * SHADOW_PAGES` (4,096 cells) are paged, higher ones go to
/// [`MemShadow::far`].
const SHADOW_PAGES: usize = 64;

/// Last definition of every memory cell.
///
/// An instance's low offsets live in 64-cell pages, allocated on the first
/// store into them and found through the instance's page table, so a use
/// or store there hashes nothing. A store at a higher offset (only an
/// array or allocation over 4,096 cells has one) goes to `far`, a std
/// SipHash map: its keys are addresses the program computes. Memory thus
/// follows the stores, not the offsets: at most one page per stored cell,
/// one 64-entry table per stored-into instance and one `far` entry per
/// far cell, however large the traced program's arrays are.
#[derive(Default)]
struct MemShadow {
    /// Per region instance, each page's index in `pages` plus one (`0`: no
    /// store on that page yet), grown on demand up to `SHADOW_PAGES`.
    tables: Vec<Vec<u32>>,
    pages: Vec<[Option<(u32, u64)>; SHADOW_PAGE]>,
    far: HashMap<Cell, (u32, u64)>,
}

impl MemShadow {
    #[inline]
    fn get(&self, cell: Cell) -> Option<(u32, u64)> {
        let (page, slot) = split_offset(cell);
        if page >= SHADOW_PAGES {
            return self.far.get(&cell).copied();
        }
        let table = self.tables.get(cell.instance() as usize)?;
        match table.get(page).copied().unwrap_or(0) {
            0 => None,
            p => self.pages[p as usize - 1][slot],
        }
    }

    #[inline]
    fn set(&mut self, cell: Cell, def: (u32, u64)) {
        let (page, slot) = split_offset(cell);
        if page >= SHADOW_PAGES {
            self.far.insert(cell, def);
            return;
        }
        let i = cell.instance() as usize;
        if i >= self.tables.len() {
            self.tables.resize_with(i + 1, Vec::new);
        }
        let table = &mut self.tables[i];
        if page >= table.len() {
            table.resize(page + 1, 0);
        }
        if table[page] == 0 {
            self.pages.push([None; SHADOW_PAGE]);
            table[page] = self.pages.len() as u32;
        }
        self.pages[table[page] as usize - 1][slot] = Some(def);
    }

    /// Every defined cell's last definition.
    fn last_defs(self) -> HashMap<Cell, (u32, u64)> {
        let mut out = self.far;
        for (i, table) in self.tables.iter().enumerate() {
            for (page, &p) in table.iter().enumerate().filter(|&(_, &p)| p != 0) {
                for (slot, def) in self.pages[p as usize - 1].iter().enumerate() {
                    if let Some(def) = *def {
                        let offset = (page * SHADOW_PAGE + slot) as u32;
                        out.insert(Cell::new(i as u32, offset), def);
                    }
                }
            }
        }
        out
    }
}

/// A cell's page within its instance and slot within the page.
#[inline]
fn split_offset(cell: Cell) -> (usize, usize) {
    let o = cell.offset() as usize;
    (o / SHADOW_PAGE, o % SHADOW_PAGE)
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
    memo: UseMemo,
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
        memo.0.clear();
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

/// Actual resolutions of one frame's memory uses, indexed by use slot
/// within the frame's current node and grown on demand. Each entry carries
/// the timestamp of the node instance that wrote it, and node instances
/// never share one, so entries of earlier instances read as absent without
/// being cleared.
#[derive(Default)]
struct UseMemo(Vec<(u64, Option<(u32, u64)>)>);

impl UseMemo {
    #[inline]
    fn set(&mut self, slot: usize, ts: u64, actual: Option<(u32, u64)>) {
        if slot >= self.0.len() {
            self.0.resize(slot + 1, (0, None));
        }
        self.0[slot] = (ts, actual);
    }

    /// The resolution slot `slot` recorded in the instance at `ts`.
    #[inline]
    fn get(&self, slot: usize, ts: u64) -> Option<(u32, u64)> {
        match self.0.get(slot) {
            Some(&(at, actual)) if at == ts => actual,
            _ => None,
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
        let slot = self.nodes.use_res.slot(occ, k) as usize;
        let cx = (self.nodes, self.plan);
        self.store.record_data_pair(cx, &mut self.stats, slot, occ, k, target, td, tu);
    }

    fn record_cd_pair(&mut self, key_occ: u32, target: u32, tp: u64, tc: u64) {
        let cx = (self.nodes, self.plan);
        self.store.record_cd_pair(cx, &mut self.stats, key_occ, target, tp, tc);
    }

    /// Processes one use site of the innermost activation: verify the
    /// static inference or record a dynamic label.
    fn handle_use(&mut self, occ: u32, k: u8, shape: &UseShape, cell: Option<Cell>, ts: u64) {
        let fi = self.frames.last_mut().expect("use in a live frame");
        let (actual, is_mem) = match shape {
            UseShape::Scalar(v) => (fi.vars[v.index()], false),
            UseShape::Mem => {
                let c = cell.expect("memory use has a traced cell");
                let actual = self.mem.get(c);
                let slot = self.nodes.use_res.slot(occ, k);
                fi.memo.set((slot - fi.state.use_slot0) as usize, ts, actual);
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
                    let slot = self.nodes.use_res.slot(target, use_idx);
                    let expected = fi.memo.get((slot - fi.state.use_slot0) as usize, ts);
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
        let slot_off = self.plan.slot_offsets[assign.node as usize][assign.slot as usize];
        let ancestors = self.analysis.func(func).cd.ancestors(block);
        let fi = top(&mut self.frames, frame);
        if assign.start {
            fi.state.ts = self.next_ts;
            fi.state.use_slot0 = self.nodes.use_res.starts()[node_base as usize];
            self.next_ts += 1;
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

        let plan = self.plan;
        for (k, shape) in plan.stmt_shapes[cx.stmt.index()].iter().enumerate() {
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
                        self.mem.set(cell, (occ, ts));
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
        let k = (self.plan.stmt_shapes[stmt.index()].len() - 1) as u8;
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
        let mut labels = Resident(&g.labels);
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

    /// The store's pair log becomes runs in place. Use slot 0 has two
    /// edges of its own, slot 2 one, and slots 1 and 2 share a channel. The
    /// own channels of slot 0 merge into one run, with owners 0 and 1 in
    /// discovery order; the shared channel keeps a run of its own, placed
    /// by slot 1 and searched after slot 2's own run. A run whose pairs
    /// arrived out of use-timestamp order comes out sorted, and identical
    /// consecutive pairs on a channel are stored once.
    #[test]
    fn pair_log_lays_out_as_runs() {
        let mut store = DynStore::new(3, 0, 0);
        let c: Vec<u32> = (0..4).map(|_| store.new_channel()).collect();
        for (slot, target, chan) in [(0, 10, c[0]), (0, 11, c[1]), (1, 12, c[2]), (2, 13, c[3]), (2, 12, c[2])] {
            store.data_dyn.push(slot, (target, chan));
        }
        let log = [(0, (5, 2)), (2, (9, 1)), (1, (8, 4)), (2, (9, 1)), (0, (6, 3)), (3, (3, 5)), (1, (1, 1)), (2, (2, 7))];
        let stored: Vec<bool> = log.iter().map(|&(k, pair)| store.append(c[k], pair)).collect();
        assert_eq!(stored, [true, true, true, false, true, true, true, true]);
        let (plan, [rows, _]) = RunPlan::lay_out(store.last.len(), [&store.data_dyn, &store.cd_dyn]);
        let labels = Labels::from_log(store.tu, store.td, store.chan, &plan);
        assert_eq!(rows.start, [0, 2, 3, 5]);
        assert_eq!(rows.edges, [(10, 0), (11, 0), (12, 1), (13, 2), (12, 1)]);
        assert_eq!(labels.num_runs(), 3);
        let run = |r| {
            let (tu, td) = labels.run(r);
            tu.iter().zip(td).map(|(&u, &d)| (u, unpack(d))).collect::<Vec<_>>()
        };
        assert_eq!(run(0), [(1, (1, 1)), (2, (0, 5)), (3, (0, 6)), (4, (1, 8))]);
        assert_eq!(run(1), [(1, (0, 9)), (7, (0, 2))]);
        assert_eq!(run(2), [(5, (0, 3))]);
        let resolve = |slot: usize, ts| {
            let mut stats = TraversalStats::default();
            let row = rows.row(slot);
            let hit = CompactGraph::resolve_row(&mut Resident(&labels), row, ts, &mut stats);
            (hit.unwrap_or_else(|never: Infallible| match never {}), stats.label_searches)
        };
        assert_eq!(resolve(0, 4), (Some(Some((11, 8))), 1));
        assert_eq!(resolve(2, 7), (Some(Some((12, 2))), 2));
        assert_eq!(resolve(2, 6), (None, 2));
    }

    /// A row with more own edges than a stored owner index can name gets a
    /// second run, searched after the first like a shared run.
    #[test]
    fn a_row_past_the_owner_bits_takes_a_second_run() {
        let edges = MAX_OWNERS + 1;
        let mut store = DynStore::new(1, 0, edges);
        for i in 0..edges as u64 {
            let chan = store.new_channel();
            store.data_dyn.push(0, (i as u32, chan));
            store.append(chan, (i + 100, i));
        }
        let (plan, [rows, _]) = RunPlan::lay_out(store.last.len(), [&store.data_dyn, &store.cd_dyn]);
        let labels = Labels::from_log(store.tu, store.td, store.chan, &plan);
        assert_eq!(labels.num_runs(), 2);
        assert_eq!(labels.bounds(1), (MAX_OWNERS as u64, edges as u64));
        for (i, searches) in [(0, 1), (MAX_OWNERS - 1, 1), (MAX_OWNERS, 2)] {
            let mut stats = TraversalStats::default();
            let hit = CompactGraph::resolve_row(&mut Resident(&labels), rows.row(0), i as u64, &mut stats);
            let hit = hit.unwrap_or_else(|never: Infallible| match never {});
            assert_eq!((hit, stats.label_searches), (Some(Some((i as u32, i as u64 + 100))), searches));
        }
    }

    /// A timestamp that leaves no room for the owner bits is refused when
    /// the arena is laid out.
    #[test]
    #[should_panic(expected = "does not fit 48 bits")]
    fn timestamps_past_48_bits_are_refused() {
        let mut store = DynStore::new(1, 0, 1);
        let chan = store.new_channel();
        store.data_dyn.push(0, (0, chan));
        store.append(chan, (TS_LIMIT, 1));
        let (plan, _) = RunPlan::lay_out(store.last.len(), [&store.data_dyn, &store.cd_dyn]);
        Labels::from_log(store.tu, store.td, store.chan, &plan);
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

    /// A shared run can hold one pair twice, apart. `a` and `b` are
    /// defined in one block, so their uses in `f`'s body share a label
    /// channel (OPT-3), and the call to `h` splits those uses: the outer
    /// frame logs its `a` pair, the inner frame its own, and then the outer
    /// `b` logs the outer pair again, at the same use timestamp, because a
    /// node instance keeps its timestamp across a call. Under no
    /// speculation the blocks are separate nodes, so the uses carry labels.
    /// The repeated use timestamp is the same label, not two edges' labels:
    /// the graph builds, restores from a snapshot, and slices as FP does,
    /// resident and paged.
    #[test]
    fn shared_runs_may_repeat_a_pair_split_by_a_call() {
        use crate::snapshot::{decode, encode, Snapshot};
        let src = "fn h(int n) -> int {
               if (n > 0) { return f(n - 1); }
               return 0;
             }
             fn f(int n) -> int {
               int a;
               int b;
               if (n % 2 == 0) { a = n; b = n * 3; } else { a = n + 1; b = n * 5; }
               int x = a;
               int y = h(n);
               print x + y + b;
               return x + y;
             }
             fn main() {
               print f(4);
             }";
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let full = FullGraph::build(&p, &a, &t.events);
        let config = OptConfig { spec: SpecPolicy::None, ..OptConfig::default() };
        let opt = build_compact(&p, &a, &t.events, &config);
        let repeats = |l: &Labels| {
            (0..l.num_runs() as u32).any(|r| l.run(r).0.windows(2).any(|w| w[0] == w[1]))
        };
        assert!(repeats(&opt.labels), "no run repeats a pair");
        assert_eq!(opt.shared_row_timestamps(), 0);
        let snap = Snapshot { source: src.into(), input: Vec::new(), config, graph: opt };
        let restored = decode(&encode(&snap)).expect("decodes");
        assert_eq!(restored.graph.first_difference(&snap.graph), None);
        assert_eq!(full.outputs.len(), restored.graph.outputs.len(), "outputs");
        for (&(fs, fts), &(occ, ts)) in full.outputs.iter().zip(&restored.graph.outputs) {
            let fp = full.slice(&p, fs, fts);
            for shortcuts in [false, true] {
                assert_eq!(fp, restored.graph.slice(occ, ts, shortcuts), "{fs:?} {shortcuts}");
            }
        }
        let dir = std::env::temp_dir().join(format!("dynslice-compact-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let paged = crate::PagedGraph::spill(restored.graph, dir.join("repeat.bin"), 1).unwrap();
        for (&(fs, fts), &(occ, ts)) in full.outputs.iter().zip(&paged.graph().outputs) {
            assert_eq!(full.slice(&p, fs, fts), paged.slice(occ, ts).unwrap(), "paged {fs:?}");
        }
    }

    /// The builder's memory shadow is indexed by region instance, then
    /// offset. `f` recurses and owns a local array, so every activation
    /// stores into a region instance of its own; `loc[i]` and `g[n * 9]`
    /// index past their arrays' ends, so their offsets wrap; and stores to
    /// both interleave with calls. OPT's last definitions are FP's, cell
    /// for cell and statement for statement, and so are every defined
    /// cell's slices.
    #[test]
    fn dense_memory_shadow_matches_fp() {
        let src = "global int g[4];
             fn f(int n) -> int {
               int loc[3];
               int i;
               for (i = 0; i < 5; i = i + 1) {
                 loc[i] = n + i;
                 g[n * 7 + i] = loc[i % 3] + g[i];
               }
               if (n > 0) { loc[1] = loc[2] + f(n - 1); }
               g[n * 9] = loc[1];
               return loc[0] + loc[1];
             }
             fn main() {
               int x = f(4);
               g[11] = x + g[2];
               print f(2) + g[3];
             }";
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let full = FullGraph::build(&p, &a, &t.events);
        let instances: BTreeSet<u32> = full.last_def.keys().map(|c| c.instance()).collect();
        assert_eq!(instances.len(), 1 + 5 + 3, "g, then loc of f(4)..f(0) and f(2)..f(0)");
        for config in [OptConfig::default(), OptConfig::none()] {
            let opt = build_compact(&p, &a, &t.events, &config);
            assert_eq!(opt.last_def.len(), full.last_def.len(), "defined cells");
            for (&cell, &(fs, fts)) in &full.last_def {
                let (occ, ts) = opt.last_def_of(cell).expect("cell defined in OPT too");
                assert_eq!(opt.stmt_of(occ), fs, "{cell:?} last defined by another statement");
                let fp = full.slice(&p, fs, fts);
                for shortcuts in [false, true] {
                    let got = opt.slice(occ, ts, shortcuts);
                    assert_eq!(fp, got, "{cell:?} {shortcuts} {config:?}");
                }
            }
        }
    }

    /// The memory shadow grows with the stores, not with the offsets they
    /// reach. `main` stores to the last cell of a million-cell global and
    /// of eight 65,536-cell allocations (far cells), to the last cell of
    /// eight 4,096-cell allocations (one page each), and across the
    /// global's paged/far boundary. The shadow holds one page per paged
    /// instance and one `far` entry per far cell, gives back exactly the
    /// cells stored, and OPT's last definitions and slices are FP's.
    #[test]
    fn memory_shadow_grows_with_stores_not_offsets() {
        let src = "global int big[1048576];
             fn main() {
               int i;
               ptr p;
               ptr q;
               big[1048575] = 1;
               for (i = 0; i < 8; i = i + 1) {
                 p = alloc(65536);
                 *(p + 65535) = i;
                 q = alloc(4096);
                 *(q + 4095) = *(p + 65535) + big[1048575];
                 big[4095 + i] = *(q + 4095);
               }
               print big[1048575] + big[4100];
             }";
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let full = FullGraph::build(&p, &a, &t.events);
        let stores = full.last_def.len();
        assert_eq!(stores, 1 + 8 + 8 + 8, "big's last cell, p and q per pass, big[4095..4103)");

        let defs: HashMap<Cell, (u32, u64)> =
            full.last_def.iter().map(|(&cell, &(s, ts))| (cell, (s.index() as u32, ts))).collect();
        let mut shadow = MemShadow::default();
        for (&cell, &def) in &defs {
            shadow.set(cell, def);
        }
        assert_eq!(shadow.far.len(), 1 + 8 + 7, "big's last cell, each p's, big[4096..4103)");
        assert_eq!(shadow.pages.len(), 8 + 1, "each q's last page, big's page 63");
        let table_slots: usize = shadow.tables.iter().map(Vec::len).sum();
        assert_eq!(table_slots, (8 + 1) * SHADOW_PAGES, "a page table per paged instance");
        assert!(shadow.pages.len() * SHADOW_PAGE + shadow.far.len() <= SHADOW_PAGE * stores);
        for (&cell, &def) in &defs {
            assert_eq!(shadow.get(cell), Some(def), "{cell:?}");
        }
        assert_eq!(shadow.last_defs(), defs);

        let opt = build_compact(&p, &a, &t.events, &OptConfig::default());
        assert_eq!(opt.last_def.len(), stores, "defined cells");
        for (&cell, &(fs, fts)) in &full.last_def {
            let (occ, ts) = opt.last_def_of(cell).expect("cell defined in OPT too");
            assert_eq!(opt.stmt_of(occ), fs, "{cell:?} last defined by another statement");
            let fp = full.slice(&p, fs, fts);
            for shortcuts in [false, true] {
                assert_eq!(fp, opt.slice(occ, ts, shortcuts), "{cell:?} {shortcuts}");
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
