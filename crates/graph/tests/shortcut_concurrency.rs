//! Thread-safety of the shortcut memo table: concurrent slices over one
//! shared `CompactGraph` must produce the same slices *and* the same
//! `size(true)` / `size(false)` accounting as a sequential run. The memo
//! is a lock-free per-occurrence `OnceLock` table — racing traversals may
//! each compute a closure, but the computation is deterministic, exactly
//! one value lands, and the size model (which charges for every
//! occurrence's skip list) cannot drift.

use dynslice_analysis::ProgramAnalysis;
use dynslice_graph::{build_compact, CompactGraph, GraphSize, OptConfig};
use dynslice_runtime::{run, VmOptions};

const SRC: &str = "global int a[12];
     global int b[6];
     fn mix(int x, int y) -> int {
       int r = x;
       if (y % 3 == 0) { r = r + b[y % 6]; } else { r = r * 2 + 1; }
       return r;
     }
     fn main() {
       int i;
       int s = 0;
       for (i = 0; i < 60; i = i + 1) {
         int k = i % 12;
         a[k] = mix(a[k], i);
         b[i % 6] = b[i % 6] + a[k];
         if (a[k] > 40) { a[k] = a[k] - 17; }
         s = s + a[k];
       }
       print s;
       print b[3];
     }";

fn build() -> (dynslice_ir::Program, CompactGraph) {
    let p = dynslice_lang::compile(SRC).expect("compiles");
    let a = ProgramAnalysis::compute(&p);
    let t = run(&p, VmOptions::default());
    assert!(!t.truncated);
    let g = build_compact(&p, &a, &t.events, &OptConfig::default());
    (p, g)
}

/// All slice criteria of a graph: every cell's last definition plus every
/// output instance.
fn criteria(g: &CompactGraph) -> Vec<(u32, u64)> {
    let mut cells: Vec<_> = g.last_def.keys().copied().collect();
    cells.sort();
    let mut qs: Vec<(u32, u64)> =
        cells.iter().map(|c| g.last_def_of(*c).expect("defined cell")).collect();
    qs.extend(g.outputs.iter().copied());
    qs
}

/// Slices every criterion sequentially and returns the resulting sizes.
fn sequential_accounting(g: &CompactGraph) -> (GraphSize, GraphSize, u64) {
    for &(occ, ts) in &criteria(g) {
        let _ = g.slice(occ, ts, true);
    }
    (g.size(true), g.size(false), g.shortcuts_materialized())
}

#[test]
fn concurrent_slices_match_sequential_size_accounting() {
    let (_p, seq_graph) = build();
    let (seq_with, seq_without, _seq_materialized) = sequential_accounting(&seq_graph);

    let (_p2, par_graph) = build();
    let qs = criteria(&par_graph);
    // Hammer the same criteria from many threads at once: every thread
    // slices the full set, so every shortcut slot sees racing writers.
    let threads = 8;
    std::thread::scope(|scope| {
        for t in 0..threads {
            let par_graph = &par_graph;
            let qs = &qs;
            scope.spawn(move || {
                // Stagger starting points so threads collide on different
                // occurrences at different times.
                for i in 0..qs.len() {
                    let (occ, ts) = qs[(i + t * qs.len() / threads) % qs.len()];
                    let _ = par_graph.slice(occ, ts, true);
                }
            });
        }
    });

    // The size model walks *every* occurrence's closure, so both graphs
    // end fully materialized and the accounting must be identical.
    assert_eq!(seq_with, par_graph.size(true), "size(true) diverged under concurrency");
    assert_eq!(seq_without, par_graph.size(false), "size(false) diverged under concurrency");
}

#[test]
fn concurrent_slices_equal_sequential_slices() {
    let (_p, g) = build();
    let qs = criteria(&g);
    let expected: Vec<_> = qs.iter().map(|&(occ, ts)| g.slice(occ, ts, true)).collect();

    // A fresh graph sliced concurrently (cold memo table, maximal racing).
    let (_p2, g2) = build();
    let results: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..6)
            .map(|_| {
                let g2 = &g2;
                let qs = &qs;
                scope.spawn(move || {
                    qs.iter().map(|&(occ, ts)| g2.slice(occ, ts, true)).collect::<Vec<_>>()
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("no panic")).collect()
    });
    for per_thread in results {
        assert_eq!(expected, per_thread, "a concurrent traversal produced a different slice");
    }
    // Plain (shortcut-free) traversal must agree as well.
    for (&(occ, ts), want) in qs.iter().zip(expected.iter()) {
        assert_eq!(*want, g2.slice(occ, ts, false));
    }
}

#[test]
fn materialization_counter_is_bounded_and_saturates() {
    let (_p, g) = build();
    let qs = criteria(&g);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let g = &g;
            let qs = &qs;
            scope.spawn(move || {
                for &(occ, ts) in qs {
                    let _ = g.slice(occ, ts, true);
                }
            });
        }
    });
    let after_slicing = g.shortcuts_materialized();
    // Exactly one writer can win each occurrence's slot, so the counter
    // never exceeds the occurrence count no matter how many threads race.
    let occs = g.nodes.num_occs() as u64;
    assert!(after_slicing <= occs, "materialized {after_slicing} > {occs} occurrences");
    assert!(after_slicing > 0, "slicing materialized nothing");
    // size(true) walks every occurrence: the table saturates and stays put.
    let _ = g.size(true);
    assert_eq!(g.shortcuts_materialized(), occs);
    let _ = g.size(true);
    assert_eq!(g.shortcuts_materialized(), occs);
}

/// The running count of materialized shortcut statements follows racing
/// writers exactly: only the winner of a slot adds its closure, so once
/// `size(true)` has materialized every closure the graph's resident size
/// is `size(true)`.
#[test]
fn materialized_shortcut_bytes_match_the_size_model() {
    let (_p, g) = build();
    assert_eq!(g.resident_size(), g.size(false));
    let qs = criteria(&g);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let g = &g;
            let qs = &qs;
            scope.spawn(move || {
                for &(occ, ts) in qs {
                    let _ = g.slice(occ, ts, true);
                }
            });
        }
    });
    let sliced = g.resident_size().shortcut_stmts;
    assert!(sliced > 0, "slicing materialized no multi-statement closure");
    let full = g.size(true);
    assert!(sliced <= full.shortcut_stmts, "{sliced} > {}", full.shortcut_stmts);
    assert_eq!(g.resident_size(), full);
}
