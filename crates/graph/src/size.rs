//! Graph size accounting.
//!
//! The paper reports graph sizes in megabytes of representation. Absolute
//! bytes depend on implementation details, so sizes here are computed from
//! a fixed cost model over representation *counts*, applied identically to
//! the full and compacted graphs:
//!
//! * node header: 16 bytes, plus 4 bytes per statement slot it carries
//!   (specialized path nodes pay for their duplicated statements);
//! * static (unlabeled) edge: 8 bytes;
//! * dynamic edge header: 16 bytes;
//! * timestamp pair: 8 bytes (two 32-bit timestamps, as in the paper's
//!   era-appropriate accounting);
//! * shortcut edge: 8 bytes plus 4 bytes per statement in its skip list.

/// Representation counts for one dependence graph.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct GraphSize {
    /// Graph nodes (blocks + specialized paths); 0 for the full graph,
    /// whose nodes are implicit.
    pub nodes: u64,
    /// Statement slots across nodes.
    pub slots: u64,
    /// Static (unlabeled) edges: local def-use, use-use, control-with-δ.
    pub static_edges: u64,
    /// Dynamic (labeled) edges.
    pub dynamic_edges: u64,
    /// Explicit timestamp pairs stored (shared label lists counted once).
    pub pairs: u64,
    /// Statements listed on shortcut edges.
    pub shortcut_stmts: u64,
}

impl GraphSize {
    /// Total bytes under the cost model.
    pub fn bytes(&self) -> u64 {
        self.nodes * 16
            + self.slots * 4
            + self.static_edges * 8
            + self.dynamic_edges * 16
            + self.pairs * 8
            + self.shortcut_stmts * 4
    }

    /// Megabytes under the cost model.
    pub fn megabytes(&self) -> f64 {
        self.bytes() as f64 / (1024.0 * 1024.0)
    }
}

/// Where a statically-inferred (label-free) dependence instance came from —
/// the optimization credited with eliminating its timestamp pair.
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum OptKind {
    /// OPT-1a: local def-use within one block.
    LocalDefUse,
    /// OPT-1b: aliased local def-use, static fallback exercised.
    PartialDefUse,
    /// OPT-2b: local use-use edge.
    UseUse,
    /// OPT-2c: def-use made local by path specialization.
    PathDefUse,
    /// OPT-3: label shared between two data edges.
    SharedData,
    /// OPT-4: control dependence at constant timestamp distance.
    ControlDelta,
    /// OPT-5: control dependence made local by specialization.
    PathControl,
    /// OPT-6: label shared between a control and a data edge.
    SharedControl,
}

impl OptKind {
    /// Every kind, in declaration order (the index of [`BuildStats`]'s
    /// counters).
    pub const ALL: [OptKind; 8] = [
        OptKind::LocalDefUse,
        OptKind::PartialDefUse,
        OptKind::UseUse,
        OptKind::PathDefUse,
        OptKind::SharedData,
        OptKind::ControlDelta,
        OptKind::PathControl,
        OptKind::SharedControl,
    ];
}

/// Dependence-instance statistics gathered while building a compacted graph:
/// how many timestamp pairs each optimization avoided storing.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct BuildStats {
    /// Pairs avoided, indexed by `OptKind as usize` (read through
    /// [`BuildStats::saved`]).
    pub(crate) saved: [u64; OptKind::ALL.len()],
    /// Pairs stored explicitly for data dependences.
    pub stored_data_pairs: u64,
    /// Pairs stored explicitly for control dependences.
    pub stored_control_pairs: u64,
    /// Static inferences that failed verification and fell back to a
    /// dynamic label (counted within `stored_*_pairs` too).
    pub demoted: u64,
    /// Total dynamic data-dependence instances exercised.
    pub total_data: u64,
    /// Total dynamic control-dependence instances exercised.
    pub total_control: u64,
}

impl BuildStats {
    #[inline]
    pub(crate) fn save(&mut self, k: OptKind) {
        self.saved[k as usize] += 1;
    }

    /// Pairs optimization `k` avoided storing.
    pub fn saved(&self, k: OptKind) -> u64 {
        self.saved[k as usize]
    }

    /// Total pairs avoided across all optimizations.
    pub fn total_saved(&self) -> u64 {
        self.saved.iter().sum()
    }

    /// Fraction of dependence instances stored explicitly (the paper's
    /// "roughly 6%" headline for the benchmarks studied).
    pub fn explicit_fraction(&self) -> f64 {
        let total = (self.total_data + self.total_control) as f64;
        if total == 0.0 {
            return 0.0;
        }
        (self.stored_data_pairs + self.stored_control_pairs) as f64 / total
    }
}

impl dynslice_obs::RecordMetrics for GraphSize {
    fn record_metrics(&self, reg: &dynslice_obs::Registry) {
        reg.counter_set("graph.nodes", self.nodes);
        reg.counter_set("graph.slots", self.slots);
        reg.counter_set("graph.static_edges", self.static_edges);
        reg.counter_set("graph.dynamic_edges", self.dynamic_edges);
        reg.counter_set("graph.pairs", self.pairs);
        reg.counter_set("graph.shortcut_stmts", self.shortcut_stmts);
        reg.counter_set("graph.bytes", self.bytes());
    }
}

impl dynslice_obs::RecordMetrics for BuildStats {
    fn record_metrics(&self, reg: &dynslice_obs::Registry) {
        reg.counter_add("build.stored_data_pairs", self.stored_data_pairs);
        reg.counter_add("build.stored_control_pairs", self.stored_control_pairs);
        reg.counter_add("build.demoted", self.demoted);
        reg.counter_add("build.total_data", self.total_data);
        reg.counter_add("build.total_control", self.total_control);
        reg.counter_add("build.pairs_saved", self.total_saved());
        reg.gauge_set("build.explicit_fraction", self.explicit_fraction());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_follow_cost_model() {
        let s = GraphSize {
            nodes: 2,
            slots: 10,
            static_edges: 3,
            dynamic_edges: 4,
            pairs: 100,
            shortcut_stmts: 5,
        };
        assert_eq!(s.bytes(), 2 * 16 + 10 * 4 + 3 * 8 + 4 * 16 + 100 * 8 + 5 * 4);
        assert!(s.megabytes() > 0.0);
    }

    #[test]
    fn stats_fraction() {
        let mut st = BuildStats {
            total_data: 90,
            total_control: 10,
            stored_data_pairs: 5,
            stored_control_pairs: 1,
            ..Default::default()
        };
        st.save(OptKind::LocalDefUse);
        st.save(OptKind::LocalDefUse);
        st.save(OptKind::UseUse);
        assert_eq!(st.total_saved(), 3);
        assert_eq!(st.saved(OptKind::LocalDefUse), 2);
        assert_eq!(st.saved(OptKind::SharedControl), 0);
        assert!((st.explicit_fraction() - 0.06).abs() < 1e-9);
    }
}
