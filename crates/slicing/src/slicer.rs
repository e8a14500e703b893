//! The unified slicing interface: one [`Slicer`] trait over every backend.
//!
//! The four algorithms historically grew four ad-hoc query signatures —
//! `FpSlicer::slice(&Program, Criterion) -> Option<Slice>`,
//! `OptSlicer::slice(Criterion) -> Option<Slice>`,
//! `LpSlicer::slice(Criterion) -> io::Result<Option<(Slice, LpStats)>>`,
//! `ForwardSlicer::slice(Criterion) -> Option<Slice>` — so every call site
//! (tests, benches, the CLI, the batch engine) special-cased the algorithm.
//! [`Slicer`] collapses them: `slice_with_stats(&Criterion)` returns
//! `Result<(Slice, SliceStats), SliceError>`, with failure modes that were
//! previously conflated into `None` (unknown criterion vs. LP pass-budget
//! truncation vs. I/O) split into distinct [`SliceError`] variants.
//!
//! The trait requires `Sync`: the batch engine and the slice server share
//! one slicer by reference across worker threads.

use std::fmt;
use std::io;

use dynslice_graph::{PagedGraph, TraversalStats};

use crate::lp::LpStats;
use crate::{Criterion, Slice};

/// Why a slice query failed.
///
/// `UnknownCriterion` replaces the historical `None` return: the criterion
/// names a cell that was never defined or an output index past the end of
/// the trace. The other variants only arise for backends that touch disk
/// (`Io`) or bound their work (`Truncated`, LP's pass cap).
#[derive(Debug)]
pub enum SliceError {
    /// The criterion never executed (unknown cell, or output index out of
    /// range). Not an algorithm failure: every backend agrees on it.
    UnknownCriterion,
    /// The backend gave up before converging (LP's `max_passes` budget);
    /// `partial` holds the sound-but-incomplete slice accumulated so far.
    Truncated {
        /// The statements found before the budget ran out (a subset of the
        /// true slice).
        partial: Slice,
    },
    /// An I/O error from a disk-resident backend (LP record stream, paged
    /// graph spill file).
    Io(io::Error),
}

impl SliceError {
    /// Stable machine-readable tag for protocol and metrics surfaces.
    pub fn kind(&self) -> &'static str {
        match self {
            SliceError::UnknownCriterion => "unknown_criterion",
            SliceError::Truncated { .. } => "truncated",
            SliceError::Io(_) => "io",
        }
    }
}

impl fmt::Display for SliceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SliceError::UnknownCriterion => write!(f, "criterion never executed"),
            SliceError::Truncated { partial } => write!(
                f,
                "slice truncated by the pass budget ({} statements found so far)",
                partial.len()
            ),
            SliceError::Io(e) => write!(f, "I/O error during slicing: {e}"),
        }
    }
}

impl std::error::Error for SliceError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SliceError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<io::Error> for SliceError {
    fn from(e: io::Error) -> Self {
        SliceError::Io(e)
    }
}

/// Per-query cost counters, unified across backends.
///
/// This is the superset of the per-algorithm counter structs
/// ([`TraversalStats`], [`LpStats`]); each backend fills the fields that
/// describe its cost model and leaves the rest zero. Registry emission
/// ([`SliceStats::record_metrics_for`]) skips zero fields, so an OPT run
/// still reports exactly the `opt.*` counters it always did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SliceStats {
    /// `(occurrence, timestamp)` instances visited during graph traversal
    /// (FP/OPT/paged).
    pub instances_visited: u64,
    /// Shortcut closures materialized into the shared memo table
    /// (OPT/paged).
    pub shortcuts_materialized: u64,
    /// Traversal steps answered by a memoized shortcut closure
    /// (OPT/paged).
    pub shortcut_hits: u64,
    /// Backward passes over the record stream (LP).
    pub passes: u32,
    /// Chunks whose records were scanned (LP).
    pub chunks_read: u64,
    /// Chunks skipped because their summary proved them irrelevant (LP).
    pub chunks_skipped: u64,
    /// Individual trace records examined (LP).
    pub records_scanned: u64,
    /// Bytes read from disk by this query (LP/paged).
    pub bytes_read: u64,
}

impl SliceStats {
    /// Registers the nonzero counters under `{slicer}.{field}` — e.g.
    /// `opt.instances_visited`, `lp.records_scanned` — preserving the
    /// per-algorithm report keys that predate the unified trait.
    ///
    /// The paged backend's `bytes_read` is left out: its cache keeps the
    /// running total, which `PagedGraph::record_metrics` registers under
    /// the same `paged.bytes_read` key.
    pub fn record_metrics_for(&self, slicer: &str, reg: &dynslice_obs::Registry) {
        let pairs: [(&str, u64); 8] = [
            ("instances_visited", self.instances_visited),
            ("shortcuts_materialized", self.shortcuts_materialized),
            ("shortcut_hits", self.shortcut_hits),
            ("passes", u64::from(self.passes)),
            ("chunks_read", self.chunks_read),
            ("chunks_skipped", self.chunks_skipped),
            ("records_scanned", self.records_scanned),
            ("bytes_read", self.bytes_read),
        ];
        for (field, value) in pairs {
            if value != 0 && !(slicer == "paged" && field == "bytes_read") {
                reg.counter_add(&format!("{slicer}.{field}"), value);
            }
        }
    }
}

impl From<TraversalStats> for SliceStats {
    fn from(t: TraversalStats) -> Self {
        SliceStats {
            instances_visited: t.instances_visited,
            shortcuts_materialized: t.shortcuts_materialized,
            shortcut_hits: t.shortcut_hits,
            ..SliceStats::default()
        }
    }
}

impl From<LpStats> for SliceStats {
    fn from(s: LpStats) -> Self {
        SliceStats {
            passes: s.passes,
            chunks_read: s.chunks_read,
            chunks_skipped: s.chunks_skipped,
            records_scanned: s.records_scanned,
            bytes_read: s.bytes_read,
            ..SliceStats::default()
        }
    }
}

/// A dynamic slicer: answers [`Criterion`] queries against a dependence
/// representation built once. `Sync` is part of the contract — the batch
/// engine and the slice server fan queries out over a shared `&dyn Slicer`.
pub trait Slicer: Sync {
    /// Short algorithm label for reports and protocol responses
    /// (`"fp"`, `"opt"`, `"lp"`, `"forward"`, `"paged"`).
    fn name(&self) -> &'static str;

    /// Computes a slice along with the backend's cost counters.
    ///
    /// # Errors
    /// [`SliceError::UnknownCriterion`] when the criterion never executed;
    /// [`SliceError::Truncated`] when a bounded backend gave up early;
    /// [`SliceError::Io`] when a disk-resident backend failed to read.
    fn slice_with_stats(&self, criterion: &Criterion) -> Result<(Slice, SliceStats), SliceError>;

    /// Computes a slice, discarding the counters.
    ///
    /// # Errors
    /// Same contract as [`Slicer::slice_with_stats`].
    fn slice(&self, criterion: &Criterion) -> Result<Slice, SliceError> {
        self.slice_with_stats(criterion).map(|(s, _)| s)
    }
}

/// The demand-paged hybrid graph (§4.2) slices directly: criterion lookup
/// against the resident index, then OPT's traversal with labels paged in
/// from the spill file. The page cache is internally sharded and
/// thread-safe; `bytes_read` is this query's own disk traffic.
impl Slicer for PagedGraph {
    fn name(&self) -> &'static str {
        "paged"
    }

    fn slice_with_stats(&self, criterion: &Criterion) -> Result<(Slice, SliceStats), SliceError> {
        let (occ, ts) = match criterion {
            Criterion::CellLastDef(c) => self.last_def_of(*c),
            Criterion::Output(k) => self.graph().outputs.get(*k).copied(),
        }
        .ok_or(SliceError::UnknownCriterion)?;
        let (stmts, traversal, query) = self.slice_with_stats(occ, ts)?;
        let stats = SliceStats { bytes_read: query.bytes_read, ..SliceStats::from(traversal) };
        Ok((Slice { stmts }, stats))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    #[test]
    fn error_kinds_are_stable_protocol_tags() {
        assert_eq!(SliceError::UnknownCriterion.kind(), "unknown_criterion");
        let t = SliceError::Truncated { partial: Slice { stmts: BTreeSet::new() } };
        assert_eq!(t.kind(), "truncated");
        let io = SliceError::from(io::Error::other("disk on fire"));
        assert_eq!(io.kind(), "io");
        assert!(io.to_string().contains("disk on fire"));
    }

    #[test]
    fn stats_emission_skips_zero_fields_and_prefixes_by_slicer() {
        let stats = SliceStats {
            instances_visited: 12,
            records_scanned: 0,
            shortcut_hits: 3,
            ..SliceStats::default()
        };
        let reg = dynslice_obs::Registry::new();
        stats.record_metrics_for("opt", &reg);
        let report = reg.report("opt", std::collections::BTreeMap::new());
        assert_eq!(report.counter_or_zero("opt.instances_visited"), 12);
        assert_eq!(report.counter_or_zero("opt.shortcut_hits"), 3);
        assert!(
            !report.counters.contains_key("opt.records_scanned"),
            "zero fields must not pollute the report"
        );
    }

    /// A paged query's `bytes_read` stays out of the registry: the page
    /// cache registers the running total under the same key, and adding
    /// both would count every byte twice.
    #[test]
    fn paged_bytes_read_is_left_to_the_cache_counters() {
        let stats = SliceStats { shortcut_hits: 4, bytes_read: 4096, ..SliceStats::default() };
        let reg = dynslice_obs::Registry::new();
        stats.record_metrics_for("paged", &reg);
        stats.record_metrics_for("lp", &reg);
        let report = reg.report("paged", std::collections::BTreeMap::new());
        assert_eq!(report.counter_or_zero("paged.shortcut_hits"), 4);
        assert!(!report.counters.contains_key("paged.bytes_read"));
        assert_eq!(report.counter_or_zero("lp.bytes_read"), 4096);
    }

    #[test]
    fn traversal_and_lp_stats_convert_losslessly() {
        let t = TraversalStats {
            instances_visited: 7,
            shortcuts_materialized: 2,
            shortcut_hits: 5,
        };
        let s = SliceStats::from(t);
        assert_eq!(s.instances_visited, 7);
        assert_eq!(s.shortcuts_materialized, 2);
        assert_eq!(s.shortcut_hits, 5);
        assert_eq!(s.passes, 0);

        let lp = LpStats {
            passes: 3,
            chunks_read: 10,
            chunks_skipped: 4,
            records_scanned: 900,
            bytes_read: 8192,
            ..LpStats::default()
        };
        let s = SliceStats::from(lp);
        assert_eq!(s.passes, 3);
        assert_eq!(s.chunks_read, 10);
        assert_eq!(s.chunks_skipped, 4);
        assert_eq!(s.records_scanned, 900);
        assert_eq!(s.bytes_read, 8192);
        assert_eq!(s.instances_visited, 0);
    }
}
