//! The static component of the compacted dyDG: the node graph (block nodes
//! plus specialized-path nodes) and per-occurrence static use/control
//! resolutions (OPT-1/2/4/5). Beside it the build computes a [`BuildPlan`]
//! — node lookup tables, statement use shapes and the label-sharing plan
//! (OPT-3/6) — which only segmentation and the trace replay read, and which
//! is dropped once the graph is built.

use std::collections::HashMap;

use dynslice_analysis::{
    const_control_distance, kill_free_chop, simultaneous_reachability, ProgramAnalysis, RegionSet,
};
use dynslice_ir::{
    defuse::{stmt_uses, term_uses, UseSite},
    BlockId, FuncId, MemRef, Program, Rvalue, StmtId, StmtKind, Terminator, VarId,
};
use dynslice_profile::{PathProfile, ProgramPaths};

use crate::size::OptKind;

/// Which Ball–Larus paths get specialized nodes (the paper's OPT-2c/5b).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub enum SpecPolicy {
    /// No path specialization.
    None,
    /// Specialize every path with nonzero frequency in a profiling run —
    /// the paper's configuration.
    #[default]
    HotPaths,
    /// Specialize every numbered path of every (non-overflowed) function.
    /// Exponential in branchy functions; useful only for ablation on small
    /// programs.
    AllPaths,
}

/// The specialization plan: which paths of which functions become nodes.
#[derive(Clone, Debug, Default)]
pub struct SpecPlan {
    /// Per function: `(path id, block sequence)` of each specialized path,
    /// sorted by path id.
    pub paths: Vec<Vec<(u64, Vec<BlockId>)>>,
}

impl SpecPlan {
    /// Builds a plan from the policy, the path numbering and (for
    /// [`SpecPolicy::HotPaths`]) a profile.
    pub fn new(
        program: &Program,
        paths: &ProgramPaths,
        profile: Option<&PathProfile>,
        policy: &SpecPolicy,
    ) -> Self {
        let mut plan = vec![Vec::new(); program.functions.len()];
        if *policy == SpecPolicy::None {
            return Self { paths: plan };
        }
        for (fi, f) in program.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            let bl = paths.func(fid);
            if bl.overflowed {
                continue;
            }
            let ids: Vec<u64> = match policy {
                SpecPolicy::None => unreachable!(),
                SpecPolicy::HotPaths => match profile {
                    Some(p) => p.nonzero_paths(fid),
                    None => Vec::new(),
                },
                SpecPolicy::AllPaths => (0..bl.num_paths).collect(),
            };
            for id in ids {
                let blocks = bl.decode(id);
                // Single-block paths coincide with the block node; skip.
                if blocks.len() >= 2 {
                    plan[fi].push((id, blocks));
                }
            }
            let _ = f;
        }
        Self { paths: plan }
    }
}

/// What kind of node an index refers to.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum NodeKind {
    /// A single basic block.
    Block(BlockId),
    /// A specialized Ball–Larus path.
    Path(u64),
}

/// One node of the compacted graph: a flattened sequence of statement
/// occurrences (each block slot contributes its statements plus terminator).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeData {
    /// Owning function.
    pub func: FuncId,
    /// Block or specialized path.
    pub kind: NodeKind,
    /// Block of each slot, in execution order.
    pub blocks: Vec<BlockId>,
    /// Flattened statement ids (terminator last within each slot).
    pub stmts: Vec<StmtId>,
}

/// Static resolution of one use site.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum UseRes {
    /// The use has no upstream dependence representable (constant) — never
    /// constructed for real use sites; kept for completeness.
    NoDep,
    /// Local def-use: the defining instance shares this node instance's
    /// timestamp. Verified at build time; mismatching instances get
    /// dynamic labels.
    StaticDu {
        /// Global occurrence index of the definition.
        target: u32,
        /// Optimization credited when an instance is inferred.
        attr: OptKind,
    },
    /// Local use-use (OPT-2b): this use always resolves like an earlier use
    /// in the same node instance. The earlier statement is *not* added to
    /// slices by this edge.
    StaticUu {
        /// Global occurrence index of the earlier use's statement.
        target: u32,
        /// Which use slot of the target statement to chain through.
        use_idx: u8,
        /// Optimization credited.
        attr: OptKind,
    },
    /// No static inference: all instances carry dynamic labels.
    Dynamic,
}

/// Static resolution of a block occurrence's control dependence.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum CdRes {
    /// No static inference; instances carry dynamic labels (this also
    /// covers call-site parents and the entry region).
    Dynamic,
    /// The parent is `target` at timestamp distance `delta` (OPT-4 for
    /// `delta > 0` across nodes, OPT-5 for `delta == 0` inside a
    /// specialized path). Verified at build time.
    Static {
        /// Global occurrence index of the parent branch statement.
        target: u32,
        /// Timestamp distance: `t_parent == t_child - delta`.
        delta: u64,
        /// Optimization credited.
        attr: OptKind,
    },
}

/// Per-occurrence static use resolutions as compressed rows: occurrence
/// `o`'s resolutions, one per use site, are `res[start[o]..start[o + 1]]`.
/// The whole table is two allocations however many occurrences there
/// are, and `start` doubles as the use-slot numbering: use `k` of `o` is
/// slot `start[o] + k`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct UseRows {
    start: Vec<u32>,
    res: Vec<UseRes>,
}

impl Default for UseRows {
    fn default() -> Self {
        UseRows { start: vec![0], res: Vec::new() }
    }
}

impl UseRows {
    /// An empty table with room for `occs` rows of `uses` resolutions in
    /// all.
    pub fn with_capacity(occs: usize, uses: usize) -> Self {
        let mut start = Vec::with_capacity(occs + 1);
        start.push(0);
        UseRows { start, res: Vec::with_capacity(uses) }
    }

    /// Appends the next occurrence's row.
    pub fn push(&mut self, row: impl IntoIterator<Item = UseRes>) {
        self.res.extend(row);
        self.start.push(self.res.len() as u32);
    }

    /// Number of rows (occurrences).
    pub fn len(&self) -> usize {
        self.start.len() - 1
    }

    /// Whether the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The rows in occurrence order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = &[UseRes]> + '_ {
        self.start.windows(2).map(|w| &self.res[w[0] as usize..w[1] as usize])
    }

    /// Every resolution, rows concatenated.
    pub fn all(&self) -> &[UseRes] {
        &self.res
    }

    /// Use `k` of occurrence `occ` as a use slot: its index in
    /// [`Self::all`].
    #[inline]
    pub fn slot(&self, occ: u32, k: u8) -> u32 {
        self.start[occ as usize] + u32::from(k)
    }

    /// Use slots across all rows.
    pub fn num_slots(&self) -> usize {
        self.res.len()
    }

    /// The first use slot of each occurrence, plus one entry closing the
    /// last row.
    pub fn starts(&self) -> &[u32] {
        &self.start
    }
}

impl std::ops::Index<usize> for UseRows {
    type Output = [UseRes];

    #[inline]
    fn index(&self, occ: usize) -> &[UseRes] {
        &self.res[self.start[occ] as usize..self.start[occ + 1] as usize]
    }
}

/// Precomputed per-statement def/use shapes (cheap to consult at build).
#[derive(Clone, Debug, PartialEq, Eq)]
pub(crate) enum UseShape {
    /// Scalar variable read.
    Scalar(VarId),
    /// Memory read (cell from the trace).
    Mem,
    /// Call return value.
    Ret,
}

/// The static component that slicing reads: every field is read by the
/// walk, the size model, a slice criterion or the `dot` export.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeGraph {
    /// All nodes: for each function its block nodes first, then its path
    /// nodes (program-wide, functions in order).
    pub nodes: Vec<NodeData>,
    /// First global occurrence index of each node.
    pub node_base: Vec<u32>,
    /// Per occurrence: statement id.
    pub occ_stmt: Vec<StmtId>,
    /// Per occurrence: global occurrence index of its block's first
    /// statement (the key dynamic control edges hang off).
    pub occ_block_key: Vec<u32>,
    /// Per occurrence: static use resolutions, one per use site.
    pub use_res: UseRows,
    /// Per occurrence: static control resolution.
    pub cd_res: Vec<CdRes>,
    /// Statements in the program: the width of a slice bitmap.
    pub num_stmts: usize,
}

/// What only the build reads, returned by [`NodeGraph::build`] beside the
/// graph: the lookup tables that segmentation ([`crate::segment`]) maps
/// trace blocks to nodes with, the per-occurrence and per-statement facts
/// the trace replay reads, and the label-sharing plan (OPT-3/OPT-6) it
/// assigns channels by. [`crate::CompactGraph::build`] consumes it, so a
/// built graph — and a snapshot of one — holds none of it.
#[derive(Clone, Debug)]
pub struct BuildPlan {
    /// Per function: node index of each block node.
    pub(crate) block_node: Vec<Vec<u32>>,
    /// `(func, path id) -> node index`.
    pub(crate) path_node: HashMap<(u32, u64), u32>,
    /// Per node: flat index of each slot's first statement.
    pub(crate) slot_offsets: Vec<Vec<u32>>,
    /// Per occurrence: owning node.
    pub(crate) occ_node: Vec<u32>,
    /// Per occurrence: the block's terminator statement (identity used by
    /// the label-sharing plan).
    pub(crate) occ_block_term: Vec<StmtId>,
    /// Per statement: use shapes (canonical order).
    pub(crate) stmt_shapes: Vec<Vec<UseShape>>,
    /// Label-sharing plan for data edges: `(use stmt, use idx, def stmt) ->
    /// group id` (OPT-3 and the data half of OPT-6).
    pub(crate) share_data: HashMap<(StmtId, u8, StmtId), u32>,
    /// Label-sharing plan for control edges: `(child block's terminator,
    /// parent stmt) -> group id` (OPT-6).
    pub(crate) share_cd: HashMap<(StmtId, StmtId), u32>,
    /// Number of sharing groups.
    pub(crate) num_groups: u32,
}

/// No definition, in [`BuildPlan::share`]'s per-block tables.
const NO_DEF: StmtId = StmtId(u32::MAX);

/// Feature switches for the static component (ablations / Fig. 15 stages).
#[derive(Clone, Debug)]
pub struct OptConfig {
    /// OPT-1a/1b: local def-use inference.
    pub local_du: bool,
    /// OPT-2b: local use-use edges.
    pub use_use: bool,
    /// OPT-2c/5: path specialization policy.
    pub spec: SpecPolicy,
    /// OPT-3: data-data label sharing.
    pub share_data: bool,
    /// OPT-4: constant-distance control edges.
    pub cd_delta: bool,
    /// OPT-5a (as delivered by specialization): local control edges inside
    /// path nodes.
    pub cd_local: bool,
    /// OPT-6: control-data label sharing.
    pub share_cd: bool,
}

impl Default for OptConfig {
    fn default() -> Self {
        Self {
            local_du: true,
            use_use: true,
            spec: SpecPolicy::HotPaths,
            share_data: true,
            cd_delta: true,
            cd_local: true,
            share_cd: true,
        }
    }
}

impl OptConfig {
    /// Everything off: the compacted graph degenerates to an FP-shaped
    /// graph over block nodes.
    pub fn none() -> Self {
        Self {
            local_du: false,
            use_use: false,
            spec: SpecPolicy::None,
            share_data: false,
            cd_delta: false,
            cd_local: false,
            share_cd: false,
        }
    }
}

impl NodeGraph {
    /// Builds the static component, and beside it the [`BuildPlan`] that
    /// the trace replay consumes.
    pub fn build(
        program: &Program,
        analysis: &ProgramAnalysis,
        spec: &SpecPlan,
        config: &OptConfig,
    ) -> (Self, BuildPlan) {
        let mut g = NodeGraph {
            nodes: Vec::new(),
            node_base: Vec::new(),
            occ_stmt: Vec::new(),
            occ_block_key: Vec::new(),
            use_res: UseRows::default(),
            cd_res: Vec::new(),
            num_stmts: program.num_stmts(),
        };
        let mut plan = BuildPlan {
            block_node: vec![Vec::new(); program.functions.len()],
            path_node: HashMap::new(),
            slot_offsets: Vec::new(),
            occ_node: Vec::new(),
            occ_block_term: Vec::new(),
            stmt_shapes: stmt_shapes(program),
            share_data: HashMap::new(),
            share_cd: HashMap::new(),
            num_groups: 0,
        };
        // Nodes: block nodes for every block, then path nodes.
        for (fi, f) in program.functions.iter().enumerate() {
            let fid = FuncId(fi as u32);
            for b in f.block_ids() {
                let ni = g.push_node(&mut plan, program, fid, NodeKind::Block(b), &[b]);
                plan.block_node[fi].push(ni);
            }
            for (pid, blocks) in &spec.paths[fi] {
                let ni = g.push_node(&mut plan, program, fid, NodeKind::Path(*pid), blocks);
                plan.path_node.insert((fi as u32, *pid), ni);
            }
        }
        // Static resolutions per node. Blocks on some specialized path,
        // per function: OPT-4 inference skips chops that touch them.
        let specialized: Vec<Vec<bool>> = program
            .functions
            .iter()
            .zip(&spec.paths)
            .map(|(f, paths)| {
                let mut on_path = vec![false; f.blocks.len()];
                for b in paths.iter().flat_map(|(_, blocks)| blocks) {
                    on_path[b.index()] = true;
                }
                on_path
            })
            .collect();
        let uses = g.occ_stmt.iter().map(|s| plan.stmt_shapes[s.index()].len()).sum();
        let mut use_res = UseRows::with_capacity(g.num_occs(), uses);
        let mut cd_res = Vec::with_capacity(g.num_occs());
        for ni in 0..g.nodes.len() as u32 {
            let (uses, cds) = (&mut use_res, &mut cd_res);
            g.resolve_node(&plan, program, analysis, config, ni, &specialized, uses, cds);
        }
        (g.use_res, g.cd_res) = (use_res, cd_res);
        if config.share_data || config.share_cd {
            plan.share(program, analysis, config);
        }
        (g, plan)
    }

    fn push_node(
        &mut self,
        plan: &mut BuildPlan,
        program: &Program,
        func: FuncId,
        kind: NodeKind,
        blocks: &[BlockId],
    ) -> u32 {
        let ni = self.nodes.len() as u32;
        let base = self.occ_stmt.len() as u32;
        self.node_base.push(base);
        let mut data = NodeData { func, kind, blocks: blocks.to_vec(), stmts: Vec::new() };
        let mut offsets = Vec::with_capacity(blocks.len());
        for &b in blocks {
            offsets.push(data.stmts.len() as u32);
            let bb = program.func(func).block(b);
            let key = base + data.stmts.len() as u32;
            for sid in bb.stmts.iter().map(|st| st.id).chain([bb.term_id]) {
                data.stmts.push(sid);
                self.occ_stmt.push(sid);
                self.occ_block_key.push(key);
                plan.occ_node.push(ni);
                plan.occ_block_term.push(bb.term_id);
            }
        }
        self.nodes.push(data);
        plan.slot_offsets.push(offsets);
        ni
    }

    /// Number of occurrences.
    pub fn num_occs(&self) -> usize {
        self.occ_stmt.len()
    }

    /// Global occurrence index for `(node, flat)`.
    #[inline]
    pub fn occ(&self, node: u32, flat: u32) -> u32 {
        self.node_base[node as usize] + flat
    }

    /// Appends the static use and control resolutions of node `ni`'s
    /// occurrences to `use_res` and `cd_res`. Control resolution depends
    /// only on the block, so it is computed once per block slot.
    #[allow(clippy::too_many_arguments)]
    fn resolve_node(
        &self,
        plan: &BuildPlan,
        program: &Program,
        analysis: &ProgramAnalysis,
        config: &OptConfig,
        ni: u32,
        specialized: &[Vec<bool>],
        use_res: &mut UseRows,
        cd_res: &mut Vec<CdRes>,
    ) {
        let node = &self.nodes[ni as usize];
        let offsets = &plan.slot_offsets[ni as usize];
        let base = self.node_base[ni as usize];
        let fa = analysis.func(node.func);
        let specialized = &specialized[node.func.index()];
        let is_path = matches!(node.kind, NodeKind::Path(_));
        // Block containing each flat position.
        let mut flat_block = Vec::with_capacity(node.stmts.len());
        for (si, &b) in node.blocks.iter().enumerate() {
            let end = offsets.get(si + 1).copied().unwrap_or(node.stmts.len() as u32);
            let cd =
                self.resolve_cd(plan, config, node, offsets, base, b, specialized, fa, is_path);
            for _ in offsets[si]..end {
                flat_block.push(b);
                cd_res.push(cd);
            }
        }
        for flat in 0..node.stmts.len() as u32 {
            let sid = node.stmts[flat as usize];
            use_res.push(plan.stmt_shapes[sid.index()].iter().map(|shape| {
                plan.resolve_use(
                    program, analysis, config, node, base, &flat_block, flat, shape, is_path,
                )
            }));
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn resolve_cd(
        &self,
        plan: &BuildPlan,
        config: &OptConfig,
        node: &NodeData,
        offsets: &[u32],
        base: u32,
        b: BlockId,
        specialized: &[bool],
        fa: &dynslice_analysis::FunctionAnalysis,
        is_path: bool,
    ) -> CdRes {
        let ancestors = fa.cd.ancestors(b);
        if ancestors.is_empty() {
            return CdRes::Dynamic;
        }
        // Case 1 (OPT-5 via path specialization): some ancestor's terminator
        // occurs earlier in this node. Blocks of one path node execute in
        // the same instance, so the *latest* in-path ancestor before `b` is
        // the dynamic parent, at delta 0 — even when `b` has several static
        // ancestors (the path fixes which one ran last).
        if is_path && config.cd_local {
            let b_slot = node.blocks.iter().position(|x| *x == b).expect("b in node");
            if let Some(a_slot) =
                (0..b_slot).rev().find(|s| ancestors.contains(&node.blocks[*s]))
            {
                let end = offsets.get(a_slot + 1).copied().unwrap_or(node.stmts.len() as u32);
                let term_flat = end - 1;
                return CdRes::Static {
                    target: base + term_flat,
                    delta: 0,
                    attr: OptKind::PathControl,
                };
            }
        }
        let [a] = ancestors else { return CdRes::Dynamic };
        let a = *a;
        // Case 2: OPT-4 constant distance, block-node granularity. Sound
        // only when none of the involved blocks can execute inside a
        // specialized path node (node executions would replace block
        // executions in the timestamp count).
        if !is_path && config.cd_delta {
            let fa_cfg = &fa.cfg;
            let region = dynslice_analysis::chop(fa_cfg, a, b);
            let involved_specialized = region.iter().any(|x| specialized[x]);
            if !involved_specialized {
                if let Some(delta) =
                    const_control_distance(fa_cfg, a, b, &|x| fa.block_has_call(x))
                {
                    // Target: a's terminator occurrence in a's block node.
                    let a_node = plan.block_node[node.func.index()][a.index()];
                    let a_data = &self.nodes[a_node as usize];
                    let term_flat = a_data.stmts.len() as u32 - 1;
                    return CdRes::Static {
                        target: self.occ(a_node, term_flat),
                        delta: delta as u64,
                        attr: OptKind::ControlDelta,
                    };
                }
            }
        }
        CdRes::Dynamic
    }
}

/// Use shapes of every statement, indexed by statement id.
fn stmt_shapes(program: &Program) -> Vec<Vec<UseShape>> {
    let mut shapes = vec![Vec::new(); program.num_stmts()];
    for (_, _, bb) in program.all_blocks() {
        for st in &bb.stmts {
            shapes[st.id.index()] = stmt_uses(&st.kind)
                .iter()
                .map(|u| match u {
                    UseSite::Scalar(v) => UseShape::Scalar(*v),
                    UseSite::Mem(_) => UseShape::Mem,
                    UseSite::Ret => UseShape::Ret,
                })
                .collect();
        }
        shapes[bb.term_id.index()] = term_uses(&bb.term)
            .iter()
            .map(|u| match u {
                UseSite::Scalar(v) => UseShape::Scalar(*v),
                _ => unreachable!("terminators only use scalars"),
            })
            .collect();
    }
    shapes
}

impl BuildPlan {
    #[allow(clippy::too_many_arguments)]
    fn resolve_use(
        &self,
        program: &Program,
        analysis: &ProgramAnalysis,
        config: &OptConfig,
        node: &NodeData,
        base: u32,
        flat_block: &[BlockId],
        flat: u32,
        shape: &UseShape,
        is_path: bool,
    ) -> UseRes {
        match shape {
            UseShape::Ret => UseRes::Dynamic,
            UseShape::Scalar(v) => {
                if !config.local_du && !config.use_use {
                    return UseRes::Dynamic;
                }
                for j in (0..flat).rev() {
                    let sj = node.stmts[j as usize];
                    if let Some(StmtKind::Assign { dst, .. }) = program.stmt_kind(sj) {
                        if dst == v {
                            if !config.local_du {
                                return UseRes::Dynamic;
                            }
                            let attr = if is_path && flat_block[j as usize] != flat_block[flat as usize] {
                                OptKind::PathDefUse
                            } else {
                                OptKind::LocalDefUse
                            };
                            return UseRes::StaticDu { target: base + j, attr };
                        }
                    }
                    if let Some(k) = self.stmt_shapes[sj.index()]
                        .iter()
                        .position(|s| s == &UseShape::Scalar(*v))
                    {
                        if !config.use_use {
                            continue;
                        }
                        return UseRes::StaticUu {
                            target: base + j,
                            use_idx: k as u8,
                            attr: OptKind::UseUse,
                        };
                    }
                }
                UseRes::Dynamic
            }
            UseShape::Mem => {
                if !config.local_du && !config.use_use {
                    return UseRes::Dynamic;
                }
                let my_ref = mem_ref_of(program, node.stmts[flat as usize]);
                let Some(my_ref) = my_ref else { return UseRes::Dynamic };
                for j in (0..flat).rev() {
                    let sj = node.stmts[j as usize];
                    match program.stmt_kind(sj) {
                        Some(StmtKind::Assign { rv: Rvalue::Call { .. }, .. }) => {
                            // Calls may store anywhere; stop.
                            return UseRes::Dynamic;
                        }
                        Some(StmtKind::Store { mem, .. })
                            // Nearest may-alias store: the static candidate.
                            if may_alias(analysis, node.func, mem, my_ref) => {
                                if !config.local_du {
                                    return UseRes::Dynamic;
                                }
                                let same_block =
                                    flat_block[j as usize] == flat_block[flat as usize];
                                let syntactic = mem == my_ref;
                                let attr = if !same_block {
                                    OptKind::PathDefUse
                                } else if syntactic {
                                    OptKind::LocalDefUse
                                } else {
                                    OptKind::PartialDefUse
                                };
                                return UseRes::StaticDu { target: base + j, attr };
                            }
                        Some(StmtKind::Assign { rv: Rvalue::Load(mem), .. })
                            if config.use_use && mem == my_ref => {
                                // Identical reference read earlier with no
                                // intervening may-alias store: use-use.
                                let k = self.stmt_shapes[sj.index()]
                                    .iter()
                                    .position(|s| s == &UseShape::Mem)
                                    .expect("load has a mem use");
                                return UseRes::StaticUu {
                                    target: base + j,
                                    use_idx: k as u8,
                                    attr: OptKind::UseUse,
                                };
                            }
                        _ => {}
                    }
                }
                UseRes::Dynamic
            }
        }
    }

    /// Builds the OPT-3 / OPT-6 label-sharing plan.
    fn share(
        &mut self,
        program: &Program,
        analysis: &ProgramAnalysis,
        config: &OptConfig,
    ) {
        let mut first_use = Vec::new();
        let mut cands = Vec::new();
        for (fi, f) in program.functions.iter().enumerate() {
            let fa = analysis.func(FuncId(fi as u32));
            let (nblocks, nvars) = (f.blocks.len(), f.num_vars as usize);
            // Per block, indexed by variable: the block's last scalar
            // definition of it (`last_def[b * nvars + v]`). Per block, in
            // statement order: the first scalar use of each variable that
            // comes before any definition of it in the block
            // (`first_use[use_start[b]..use_start[b + 1]]`).
            let mut last_def = vec![NO_DEF; nblocks * nvars];
            let mut use_start = Vec::with_capacity(nblocks + 1);
            // The block (plus one) that last defined or first-used each
            // variable: a use of a variable already marked is not a first use.
            let mut marked = vec![0u32; nvars];
            first_use.clear();
            for (bi, bb) in f.blocks.iter().enumerate() {
                use_start.push(first_use.len());
                let mark = bi as u32 + 1;
                let defs = &mut last_def[bi * nvars..][..nvars];
                let stmts = bb.stmts.iter().map(|st| (st.id, Some(&st.kind)));
                for (sid, kind) in stmts.chain([(bb.term_id, None)]) {
                    for (k, sh) in self.stmt_shapes[sid.index()].iter().enumerate() {
                        if let UseShape::Scalar(v) = *sh {
                            if marked[v.index()] != mark {
                                marked[v.index()] = mark;
                                first_use.push((v, sid, k as u8));
                            }
                        }
                    }
                    if let Some(StmtKind::Assign { dst, .. }) = kind {
                        marked[dst.index()] = mark;
                        defs[dst.index()] = sid;
                    }
                }
            }
            use_start.push(first_use.len());
            let defines = |b: BlockId, v: VarId| last_def[b.index() * nvars + v.index()] != NO_DEF;
            // Candidate pairs per (bd, bu).
            for bd in f.block_ids() {
                let defs = &last_def[bd.index() * nvars..][..nvars];
                if defs.iter().all(|&d| d == NO_DEF) {
                    continue;
                }
                for bu in f.block_ids() {
                    let uses = &first_use[use_start[bu.index()]..use_start[bu.index() + 1]];
                    if bu == bd || uses.is_empty() {
                        continue;
                    }
                    // Data-data sharing (OPT-3).
                    if config.share_data {
                        cands.clear();
                        cands.extend(uses.iter().filter_map(|&(v, us, uk)| {
                            let d = defs[v.index()];
                            (d != NO_DEF).then_some((v, d, us, uk))
                        }));
                        for i in 0..cands.len() {
                            for j in i + 1..cands.len() {
                                let (v1, d1, u1, k1) = cands[i];
                                let (v2, d2, u2, k2) = cands[j];
                                let ok = simultaneous_reachability(
                                    &fa.cfg,
                                    bd,
                                    bu,
                                    &|x| defines(x, v1) && x != bd,
                                    &|x| defines(x, v2) && x != bd,
                                );
                                if ok {
                                    self.share_pair((u1, k1, d1), (u2, k2, d2));
                                }
                            }
                        }
                    }
                    // Control-data sharing (OPT-6): bu's unique ancestor is
                    // bd, and bd's last def of v always survives to bu. The
                    // data partner is the first such use in statement order.
                    if config.share_cd && fa.cd.unique_ancestor(bu) == Some(bd) {
                        let parent_stmt = f.block(bd).term_id;
                        let child_term = f.block(bu).term_id;
                        for &(v, us, uk) in uses {
                            let d = defs[v.index()];
                            if d == NO_DEF {
                                continue;
                            }
                            if kill_free_chop(&fa.cfg, bd, bu, &|x| defines(x, v)) {
                                let g = self.group_of_data((us, uk, d));
                                self.share_cd.insert((child_term, parent_stmt), g);
                                break; // one data partner suffices
                            }
                        }
                    }
                }
            }
        }
    }

    fn group_of_data(&mut self, key: (StmtId, u8, StmtId)) -> u32 {
        if let Some(g) = self.share_data.get(&key) {
            return *g;
        }
        let g = self.num_groups;
        self.num_groups += 1;
        self.share_data.insert(key, g);
        g
    }

    fn share_pair(&mut self, a: (StmtId, u8, StmtId), b: (StmtId, u8, StmtId)) {
        match (self.share_data.get(&a).copied(), self.share_data.get(&b).copied()) {
            (Some(ga), None) => {
                self.share_data.insert(b, ga);
            }
            (None, Some(gb)) => {
                self.share_data.insert(a, gb);
            }
            (None, None) => {
                let g = self.num_groups;
                self.num_groups += 1;
                self.share_data.insert(a, g);
                self.share_data.insert(b, g);
            }
            (Some(ga), Some(gb)) if ga == gb => {}
            (Some(ga), Some(gb)) => {
                // Merge by rewriting the smaller id's members (groups are
                // tiny; linear rewrite is fine).
                for v in self.share_data.values_mut() {
                    if *v == gb {
                        *v = ga;
                    }
                }
            }
        }
    }
}

/// The memory reference a statement reads (loads) or the reference of its
/// store, used by local resolution.
fn mem_ref_of(program: &Program, s: StmtId) -> Option<&MemRef> {
    match program.stmt_kind(s)? {
        StmtKind::Assign { rv: Rvalue::Load(m), .. } => Some(m),
        StmtKind::Store { mem, .. } => Some(mem),
        _ => None,
    }
}

/// Helper used by `resolve_use`: conservative may-alias via points-to.
pub(crate) fn may_alias(
    analysis: &ProgramAnalysis,
    func: FuncId,
    a: &MemRef,
    b: &MemRef,
) -> bool {
    let ra = analysis.points_to.may_regions(func, a);
    let rb = analysis.points_to.may_regions(func, b);
    // Same region and both constant offsets: alias iff offsets equal.
    if let (
        MemRef::Direct { region: r1, offset: dynslice_ir::Operand::Const(o1) },
        MemRef::Direct { region: r2, offset: dynslice_ir::Operand::Const(o2) },
    ) = (a, b)
    {
        return r1 == r2 && o1 == o2;
    }
    let _ = RegionSet::All;
    ra.may_overlap(&rb)
}

/// Terminator-or-statement helper: whether the statement is a conditional
/// branch (used by slicing to label parent statements).
pub fn is_branch_stmt(program: &Program, s: StmtId) -> bool {
    matches!(program.terminator_of(s), Some(Terminator::Branch { .. }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynslice_analysis::ProgramAnalysis;

    fn build_with_plan(src: &str, config: &OptConfig) -> (Program, NodeGraph, BuildPlan) {
        let p = dynslice_lang::compile(src).unwrap();
        let a = ProgramAnalysis::compute(&p);
        let paths = ProgramPaths::compute(&p);
        let spec = SpecPlan::new(&p, &paths, None, &SpecPolicy::None);
        let (ng, plan) = NodeGraph::build(&p, &a, &spec, config);
        (p, ng, plan)
    }

    fn build(src: &str, config: &OptConfig) -> (Program, NodeGraph) {
        let (p, ng, _) = build_with_plan(src, config);
        (p, ng)
    }

    #[test]
    fn scalar_chain_resolves_statically_within_block() {
        // x = input(); y = x + 1; z = y + x  — all local def-use/use-use.
        let (_, ng) = build(
            "fn main() { int x = input(); int y = x + 1; int z = y + x; print z; }",
            &OptConfig::default(),
        );
        let statics = ng
            .use_res
            .iter()
            .flatten()
            .filter(|r| matches!(r, UseRes::StaticDu { .. } | UseRes::StaticUu { .. }))
            .count();
        // y's use of x, z's uses of y and x (the second as use-use or du),
        // print's use of z: at least 4 static resolutions.
        assert!(statics >= 4, "got {statics}");
    }

    #[test]
    fn first_use_in_block_is_dynamic() {
        let (p, ng) = build(
            "fn main() { int x = input(); if (x) { print x; } }",
            &OptConfig::default(),
        );
        // The `print x` lives in its own block: its use of x is Dynamic.
        let print_stmt = p
            .all_blocks()
            .flat_map(|(_, _, bb)| bb.stmts.iter())
            .find(|s| matches!(s.kind, StmtKind::Print(_)))
            .unwrap()
            .id;
        let occ = ng.occ_stmt.iter().position(|s| *s == print_stmt).unwrap();
        assert_eq!(ng.use_res[occ], vec![UseRes::Dynamic]);
    }

    #[test]
    fn disabled_optimizations_leave_everything_dynamic() {
        let (_, ng) = build(
            "fn main() { int x = input(); int y = x + 1; print y; }",
            &OptConfig::none(),
        );
        assert!(ng
            .use_res
            .iter()
            .flatten()
            .all(|r| matches!(r, UseRes::Dynamic)));
        assert!(ng.cd_res.iter().all(|r| matches!(r, CdRes::Dynamic)));
    }

    #[test]
    fn if_arm_gets_constant_distance_control_edge() {
        let (p, ng) = build(
            "fn main() { int x = input(); if (x) { print 1; } print 2; }",
            &OptConfig::default(),
        );
        // `print 1`'s block has unique ancestor (the branch) at distance 1.
        let one = p
            .all_blocks()
            .flat_map(|(_, _, bb)| bb.stmts.iter())
            .find(|s| matches!(s.kind, StmtKind::Print(dynslice_ir::Operand::Const(1))))
            .unwrap()
            .id;
        let occ = ng.occ_stmt.iter().position(|s| *s == one).unwrap();
        match ng.cd_res[occ] {
            CdRes::Static { delta, .. } => assert_eq!(delta, 1),
            other => panic!("expected static control edge, got {other:?}"),
        }
    }

    #[test]
    fn calls_block_memory_inference() {
        // The load after the call may see callee stores; it must stay
        // dynamic even though a matching store precedes it locally.
        let (p, ng, plan) = build_with_plan(
            "global int g[1];
             fn touch() { g[0] = 7; }
             fn main() { g[0] = 1; touch(); print g[0]; }",
            &OptConfig::default(),
        );
        let print_stmt = p
            .all_blocks()
            .flat_map(|(_, _, bb)| bb.stmts.iter())
            .filter(|s| matches!(s.kind, StmtKind::Assign { rv: Rvalue::Load(_), .. }))
            .last()
            .unwrap()
            .id;
        let occ = ng
            .occ_stmt
            .iter()
            .position(|s| *s == print_stmt)
            .unwrap();
        let mem_res = ng.use_res[occ]
            .iter()
            .zip(&plan.stmt_shapes[print_stmt.index()])
            .find(|(_, sh)| **sh == UseShape::Mem)
            .map(|(r, _)| *r)
            .unwrap();
        assert_eq!(mem_res, UseRes::Dynamic);
    }

    #[test]
    fn share_plan_pairs_parallel_defs_and_uses() {
        // Two variables defined in one block, both first-used in another:
        // the OPT-3 dataflow should group their edges.
        let (_, _, plan) = build_with_plan(
            "fn main() {
               int a = input();
               int b = input();
               if (a) { print a + b; }
             }",
            &OptConfig::default(),
        );
        assert!(plan.num_groups >= 1, "expected an OPT-3 sharing group");
        assert!(!plan.share_data.is_empty());
    }

    /// The sharing plan is a function of the program: repeated builds in
    /// one process give the same groups. In `main`, `a`, `b` and `c` are
    /// defined in the entry block and all first used in the `if` body,
    /// whose unique control ancestor is the entry, so the body's control
    /// edge has three valid OPT-6 data partners. With OPT-3 off each
    /// partner would get a group of its own, so a pick that followed a
    /// hash table's order would move `share_data` from build to build.
    #[test]
    fn share_plan_is_deterministic() {
        let src = "fn main() {
               int a = input();
               int b = input();
               int c = input();
               if (a > 0) { print c + b + a; }
             }";
        let groups = |config: &OptConfig| {
            let (_, _, plan) = build_with_plan(src, config);
            (plan.share_data, plan.share_cd, plan.num_groups)
        };
        for config in [OptConfig::default(), OptConfig { share_data: false, ..OptConfig::default() }] {
            let first = groups(&config);
            assert_eq!(first.1.len(), 1, "one OPT-6 site: {config:?}");
            for _ in 0..8 {
                assert_eq!(groups(&config), first, "{config:?}");
            }
        }
    }
}
