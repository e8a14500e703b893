//! Property-based differential testing: random MiniC programs from the
//! workload generator must yield identical FP / OPT / LP / paged slices
//! for every criterion — the strongest form of the paper's losslessness
//! claim (compaction is lossless, and so is spilling the labels to disk).

use dynslice::{
    pick_cells, slice_batch, BatchConfig, Criterion, ForwardSlicer, OptConfig, PagedGraph,
    Session, SliceError, Slicer, SpecPolicy, StmtId, VmOptions,
};
use dynslice_workloads::{generate, GenConfig};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// Resident-page budgets the paged backend is exercised at: a single
/// page (worst-case thrashing), the minimum sharded budget, and a
/// comfortable cache. Each is sliced with shortcuts on and off.
const RESIDENT_BUDGETS: [usize; 3] = [1, 2, 8];

/// A pid-scoped scratch directory so concurrent `cargo test` invocations
/// never collide on spill/record files.
fn diff_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dynslice-diff-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The paged analogue of `OptSlicer::slice`, via the unified trait.
fn paged_slice(paged: &PagedGraph, q: Criterion) -> Option<BTreeSet<StmtId>> {
    match Slicer::slice(paged, &q) {
        Ok(s) => Some(s.stmts),
        Err(SliceError::UnknownCriterion) => None,
        Err(e) => panic!("paged I/O: {e}"),
    }
}

fn gen_config(seed: u64, alias_pct: u64, recursion: bool) -> GenConfig {
    GenConfig {
        seed,
        iterations: 15,
        arrays: 3,
        array_size: 8,
        helpers: 2,
        stmts_per_helper: 6,
        branch_pct: 35,
        alias_pct,
        recursion,
        inner_iters: 4,
        mixing_pct: 40,
    }
}

fn check_seed(seed: u64, alias_pct: u64, recursion: bool) {
    let cfg = gen_config(seed, alias_pct, recursion);
    let src = generate(&cfg);
    let session = Session::compile(&src).unwrap_or_else(|e| panic!("seed {seed}: {e}\n{src}"));
    let trace = session.run_with(VmOptions {
        input: vec![seed as i64 % 17, 3, 9, 1],
        max_steps: 2_000_000,
    });
    if trace.truncated {
        return;
    }
    let fp = session.fp(&trace);
    let configs = [
        OptConfig::default(),
        OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
    ];
    let opts: Vec<_> = configs.iter().map(|c| session.opt(&trace, c)).collect();
    // Rows are probed longest channel first, which answers as the built
    // order does only while no two edges of a row hold one use timestamp.
    for (i, o) in opts.iter().enumerate() {
        assert_eq!(o.graph().shared_row_timestamps(), 0, "seed {seed} cfg {i}\n{src}");
    }
    let dir = diff_dir();
    let lp = session.lp(&trace, dir.join(format!("d{seed}-{alias_pct}-{recursion}.bin"))).unwrap();
    // One resident budget per seed keeps the proptest cheap while the case
    // population still covers all three budgets.
    let resident = RESIDENT_BUDGETS[seed as usize % RESIDENT_BUDGETS.len()];
    let mut paged = session
        .paged(
            &trace,
            &OptConfig::default(),
            dir.join(format!("p{seed}-{alias_pct}-{recursion}.bin")),
            resident,
        )
        .unwrap();

    // The forward computation is an independent oracle: its slices are
    // always contained in the backward ones (equal absent param-reached
    // call statements; see slicing::forward docs).
    let fwd = ForwardSlicer::build(&session.program, &session.analysis, &trace.events);
    for c in pick_cells(fp.graph().last_def.keys().copied(), 6) {
        let q = Criterion::CellLastDef(c);
        let expect = fp.slice(&q).expect("fp").stmts;
        for (i, o) in opts.iter().enumerate() {
            assert_eq!(expect, o.slice(&q).unwrap().stmts, "seed {seed} cfg {i} cell {c:?}\n{src}");
        }
        let (l, _) = lp.slice_detailed(q).unwrap().expect("lp");
        assert_eq!(expect, l.stmts, "seed {seed} LP cell {c:?}\n{src}");
        for shortcuts in [true, false] {
            paged.shortcuts = shortcuts;
            let p = paged_slice(&paged, q).expect("paged");
            assert_eq!(
                expect, p,
                "seed {seed} paged (resident {resident}, shortcuts {shortcuts}) cell {c:?}\n{src}"
            );
        }
        let f = fwd.slice(&q).expect("forward").stmts;
        assert!(f.is_subset(&expect), "seed {seed} forward ⊄ backward for {c:?}\n{src}");
    }
    for k in 0..trace.output.len().min(3) {
        let q = Criterion::Output(k);
        let expect = fp.slice(&q).expect("fp").stmts;
        for o in &opts {
            assert_eq!(expect, o.slice(&q).unwrap().stmts, "seed {seed} output {k}");
        }
        let (l, _) = lp.slice_detailed(q).unwrap().expect("lp");
        assert_eq!(expect, l.stmts, "seed {seed} LP output {k}");
        for shortcuts in [true, false] {
            paged.shortcuts = shortcuts;
            let p = paged_slice(&paged, q).expect("paged");
            assert_eq!(
                expect, p,
                "seed {seed} paged (resident {resident}, shortcuts {shortcuts}) output {k}"
            );
        }
    }
    std::fs::remove_file(dir.join(format!("d{seed}-{alias_pct}-{recursion}.bin"))).ok();
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 24, ..ProptestConfig::default() })]

    #[test]
    fn prop_fp_opt_lp_agree(seed in 0u64..5000, alias in 0u64..60) {
        check_seed(seed, alias, false);
    }

    #[test]
    fn prop_fp_opt_lp_agree_with_recursion(seed in 0u64..5000) {
        check_seed(seed, 25, true);
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 10, ..ProptestConfig::default() })]

    /// The parallel batch engine returns byte-identical slices to
    /// sequential `OptSlicer::slice` on random programs and random query
    /// batches — for 1–8 workers, with the result cache on and off, and in
    /// both traversal modes.
    #[test]
    fn prop_batch_engine_matches_sequential(
        seed in 0u64..5000,
        alias in 0u64..60,
        workers in 1usize..9,
        dup in 0u64..3,
    ) {
        let src = generate(&gen_config(seed, alias, false));
        let session = Session::compile(&src).expect("generated program compiles");
        let trace = session.run_with(VmOptions {
            input: vec![seed as i64 % 17, 3, 9, 1],
            max_steps: 2_000_000,
        });
        prop_assume!(!trace.truncated);
        for shortcuts in [true, false] {
            let mut opt = session.opt(&trace, &OptConfig::default());
            opt.shortcuts = shortcuts;
            let mut unique: Vec<Criterion> =
                pick_cells(opt.graph().last_def.keys().copied(), 8)
                    .into_iter()
                    .map(Criterion::CellLastDef)
                    .collect();
            for k in 0..trace.output.len().min(2) {
                unique.push(Criterion::Output(k));
            }
            // A criterion that never executed must come back as None too.
            unique.push(Criterion::Output(usize::MAX));
            // Repeat the whole set to exercise cache hits and in-flight
            // deduplication under contention.
            let batch: Vec<Criterion> = unique
                .iter()
                .copied()
                .cycle()
                .take(unique.len() * (dup as usize + 1))
                .collect();
            for cache in [true, false] {
                let result = slice_batch(&opt, &batch, BatchConfig { workers, cache });
                prop_assert_eq!(result.slices.len(), batch.len());
                for (q, got) in batch.iter().zip(result.slices.iter()) {
                    let want = opt.slice(q).ok();
                    prop_assert_eq!(
                        got.as_deref(),
                        want.as_ref(),
                        "seed {} workers {} cache {} shortcuts {} query {:?}",
                        seed, workers, cache, shortcuts, q
                    );
                }
                let stats = &result.stats;
                prop_assert_eq!(stats.workers.len(), workers);
                prop_assert_eq!(stats.total_queries(), batch.len() as u64);
                if cache {
                    // In-flight deduplication makes hit counts exact: every
                    // duplicate beyond the single computation is a hit.
                    prop_assert_eq!(
                        stats.total_cache_hits(),
                        (batch.len() - unique.len()) as u64
                    );
                } else {
                    prop_assert_eq!(stats.total_cache_hits(), 0);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 8, ..ProptestConfig::default() })]

    /// Batch parity for the §4.2 hybrid: the parallel batch engine over a
    /// shared `PagedGraph` returns byte-identical slices to sequential
    /// paged slicing — for 1–8 workers, every resident-page budget, with
    /// the result cache on and off, and with no I/O errors.
    #[test]
    fn prop_paged_batch_matches_sequential(
        seed in 0u64..5000,
        alias in 0u64..60,
        workers in 1usize..9,
        resident_idx in 0usize..RESIDENT_BUDGETS.len(),
        dup in 0u64..3,
    ) {
        let src = generate(&gen_config(seed, alias, false));
        let session = Session::compile(&src).expect("generated program compiles");
        let trace = session.run_with(VmOptions {
            input: vec![seed as i64 % 17, 3, 9, 1],
            max_steps: 2_000_000,
        });
        prop_assume!(!trace.truncated);
        let resident = RESIDENT_BUDGETS[resident_idx];
        let path = diff_dir().join(format!("pb-{seed}-{alias}-{workers}-{resident}.bin"));
        let paged = session.paged(&trace, &OptConfig::default(), path, resident).unwrap();
        let mut unique: Vec<Criterion> =
            pick_cells(paged.graph().last_def.keys().copied(), 8)
                .into_iter()
                .map(Criterion::CellLastDef)
                .collect();
        for k in 0..trace.output.len().min(2) {
            unique.push(Criterion::Output(k));
        }
        // A criterion that never executed must come back as None too.
        unique.push(Criterion::Output(usize::MAX));
        let batch: Vec<Criterion> = unique
            .iter()
            .copied()
            .cycle()
            .take(unique.len() * (dup as usize + 1))
            .collect();
        // Sequential answers straight off the same shared paged graph.
        let expect: Vec<Option<BTreeSet<StmtId>>> =
            batch.iter().map(|q| paged_slice(&paged, *q)).collect();
        for cache in [true, false] {
            let result = slice_batch(&paged, &batch, BatchConfig { workers, cache });
            prop_assert!(result.errors.is_empty(), "I/O errors: {:?}", result.errors);
            prop_assert_eq!(result.stats.total_failed(), 0);
            prop_assert_eq!(result.slices.len(), batch.len());
            for ((got, want), q) in
                result.slices.iter().zip(expect.iter()).zip(batch.iter())
            {
                prop_assert_eq!(
                    got.as_ref().map(|s| &s.stmts),
                    want.as_ref(),
                    "seed {} workers {} resident {} cache {} query {:?}",
                    seed, workers, resident, cache, q
                );
            }
            prop_assert_eq!(result.stats.total_queries(), batch.len() as u64);
        }
    }
}

#[test]
fn fixed_regression_seeds() {
    // Seeds that exercised interesting structure during development; kept
    // as fast deterministic regressions.
    for seed in [0, 1, 7, 42, 1234, 4999] {
        check_seed(seed, 30, false);
        check_seed(seed, 50, true);
    }
}

/// Whether any statement in `stmts` is a call. Forward slices equal the
/// backward ones exactly when no call statement is reached (see
/// `slicing::forward` module docs for the principled difference: backward
/// algorithms treat a call instance as one unit, merging its return-value
/// chain into parameter-reached slices).
fn contains_call(program: &dynslice::Program, stmts: &BTreeSet<dynslice::StmtId>) -> bool {
    use dynslice::ir::{Rvalue, StmtKind};
    stmts.iter().any(|s| {
        matches!(
            program.stmt_kind(*s),
            Some(StmtKind::Assign { rv: Rvalue::Call { .. }, .. })
        )
    })
}

/// The full differential oracle on one program/trace: for every given
/// criterion, FP == OPT (all configs) == LP == paged (at every resident
/// budget, shortcuts on and off), forward ⊆ backward always, and
/// forward == backward when the slice reaches no call statement.
fn four_way_check(name: &str, session: &Session, trace: &dynslice::Trace, queries: &[Criterion]) {
    let fp = session.fp(trace);
    let configs = [
        OptConfig::default(),
        OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
    ];
    let opts: Vec<_> = configs.iter().map(|c| session.opt(trace, c)).collect();
    let dir = diff_dir();
    let tag = name.replace('/', "_");
    let lp_path = dir.join(format!("fourway-{tag}.bin"));
    let lp = session.lp(trace, &lp_path).unwrap();
    let mut pageds: Vec<(usize, PagedGraph)> = RESIDENT_BUDGETS
        .iter()
        .map(|&r| {
            let path = dir.join(format!("fourway-{tag}-r{r}.bin"));
            (r, session.paged(trace, &OptConfig::default(), path, r).unwrap())
        })
        .collect();
    let fwd = ForwardSlicer::build(&session.program, &session.analysis, &trace.events);

    for &q in queries {
        let expect = match fp.slice(&q) {
            Ok(s) => s.stmts,
            Err(_) => {
                // Criterion never executed: every algorithm must agree.
                for o in &opts {
                    assert!(o.slice(&q).is_err(), "{name}: OPT found unexecuted {q:?}");
                }
                assert!(lp.slice_detailed(q).unwrap().is_none(), "{name}: LP found unexecuted {q:?}");
                for (r, p) in &mut pageds {
                    for shortcuts in [true, false] {
                        p.shortcuts = shortcuts;
                        assert!(
                            paged_slice(p, q).is_none(),
                            "{name}: paged (resident {r}, shortcuts {shortcuts}) found unexecuted {q:?}"
                        );
                    }
                }
                assert!(fwd.slice(&q).is_err(), "{name}: forward found unexecuted {q:?}");
                continue;
            }
        };
        for (i, o) in opts.iter().enumerate() {
            assert_eq!(expect, o.slice(&q).unwrap().stmts, "{name}: FP vs OPT cfg {i} for {q:?}");
        }
        let (l, _) = lp.slice_detailed(q).unwrap().expect("lp slice");
        assert_eq!(expect, l.stmts, "{name}: FP vs LP for {q:?}");
        for (r, p) in &mut pageds {
            for shortcuts in [true, false] {
                p.shortcuts = shortcuts;
                assert_eq!(
                    expect,
                    paged_slice(p, q).expect("paged slice"),
                    "{name}: FP vs paged (resident {r}, shortcuts {shortcuts}) for {q:?}"
                );
            }
        }
        let f = fwd.slice(&q).expect("forward slice").stmts;
        assert!(
            f.is_subset(&expect),
            "{name}: forward ⊄ backward for {q:?}; forward-only {:?}",
            f.difference(&expect).collect::<Vec<_>>()
        );
        if !contains_call(&session.program, &expect) {
            assert_eq!(expect, f, "{name}: forward ≠ backward on call-free slice {q:?}");
        }
    }
    std::fs::remove_file(&lp_path).ok();
}

/// Every named workload of the suite, sliced on the paper's 25 distinct
/// memory criteria plus the first outputs, must agree across all four
/// slicers (FP, OPT, LP and — modulo the documented call-statement
/// difference — forward).
#[test]
fn four_way_oracle_over_named_workloads() {
    for w in dynslice::workloads::suite() {
        let src = w.source(0.05);
        let session =
            Session::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        assert!(!trace.truncated, "{} truncated", w.name);
        let fp = session.fp(&trace);
        let mut queries: Vec<Criterion> = pick_cells(fp.graph().last_def.keys().copied(), 25)
            .into_iter()
            .map(Criterion::CellLastDef)
            .collect();
        assert!(!queries.is_empty(), "{} defined no cells", w.name);
        for k in 0..trace.output.len().min(3) {
            queries.push(Criterion::Output(k));
        }
        four_way_check(w.name, &session, &trace, &queries);
    }
}

#[test]
fn proptest_regression_seeds() {
    // Shrunk failure cases recorded in `differential.proptest-regressions`.
    // The vendored proptest shim does not consume regression files, so the
    // seeds are pinned here explicitly.
    check_seed(93, 1, false);
    check_seed(2165, 25, true);
}

/// One walk behind two backends: per query, OPT and paged report the
/// same `instances_visited`, `shortcut_hits`, `shortcuts_materialized` and
/// `label_searches`
/// through the unified trait when they answer the same queries in the
/// same order on graphs built from the same trace — shortcuts on and off.
#[test]
fn opt_and_paged_report_identical_traversal_counters() {
    // A label-heavy workload that pages at this budget, and two light ones.
    for name in ["300.twolf", "164.gzip", "130.li"] {
        let w = dynslice::workloads::by_name(name).expect("suite workload");
        let src = w.source(0.05);
        let session = Session::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        for shortcuts in [true, false] {
            let mut opt = session.opt(&trace, &OptConfig::default());
            opt.shortcuts = shortcuts;
            let path = diff_dir().join(format!("one-walk-{}-{shortcuts}.bin", w.name));
            let mut paged = session.paged(&trace, &OptConfig::default(), path, 2).unwrap();
            paged.shortcuts = shortcuts;
            let before = paged.stats();
            let (mut bytes, mut searches) = (0, 0);
            for c in pick_cells(opt.graph().last_def.keys().copied(), 25) {
                let q = Criterion::CellLastDef(c);
                let (want, o) = opt.slice_with_stats(&q).unwrap();
                let (got, p) = Slicer::slice_with_stats(&paged, &q).unwrap();
                assert_eq!(want.stmts, got.stmts, "{}: {q:?}", w.name);
                assert_eq!(
                    (o.instances_visited, o.shortcut_hits, o.shortcuts_materialized),
                    (p.instances_visited, p.shortcut_hits, p.shortcuts_materialized),
                    "{}: {q:?} shortcuts {shortcuts}",
                    w.name
                );
                assert_eq!(
                    o.label_searches, p.label_searches,
                    "{}: {q:?} shortcuts {shortcuts} label searches",
                    w.name
                );
                assert!(o.instances_visited > 0);
                if !shortcuts {
                    assert_eq!(p.shortcut_hits + p.shortcuts_materialized, 0);
                }
                bytes += p.bytes_read;
                searches += p.label_searches;
            }
            // Each query reports its own reads; together they are all of them.
            assert_eq!(bytes, (paged.stats() - before).bytes_read, "{}", w.name);
            // The label-heavy workload's walks really search labels.
            assert!(w.name != "300.twolf" || searches > 0, "no label searches counted");
        }
    }
}
