//! Cross-crate integration tests: the full pipeline over the bundled
//! workloads and targeted end-to-end scenarios.

use dynslice::{pick_cells, workloads, Criterion, OptConfig, Session, Slicer as _, SpecPolicy, VmOptions};

/// Every named workload: trace, build FP + OPT, compare a sample of slices,
/// and check that compaction actually compacts.
#[test]
fn workload_suite_equivalence_and_compaction() {
    for w in workloads::suite() {
        let src = w.source(0.05);
        let session = Session::compile(&src).unwrap_or_else(|e| panic!("{}: {e}", w.name));
        let trace =
            session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        assert!(!trace.truncated, "{}", w.name);
        let fp = session.fp(&trace);
        let opt = session.opt(&trace, &OptConfig::default());

        let cells = pick_cells(fp.graph().last_def.keys().copied(), 8);
        assert!(!cells.is_empty(), "{} defines no cells", w.name);
        for c in cells {
            let q = Criterion::CellLastDef(c);
            let a = fp.slice(&q).expect("fp");
            let b = opt.slice(&q).expect("opt");
            assert_eq!(a.stmts, b.stmts, "{} cell {c:?}", w.name);
        }
        // At tiny scales the fixed static component dominates; the honest
        // small-scale comparison is explicit timestamp pairs.
        let full_pairs = fp.graph().size().pairs;
        let opt_pairs = opt.graph().size(false).pairs;
        assert!(
            (opt_pairs as f64) < 0.5 * full_pairs as f64,
            "{}: weak pair elimination ({opt_pairs} vs {full_pairs})",
            w.name
        );
    }
}

/// At realistic trace lengths the whole OPT graph (static component
/// included) is several times smaller than the full graph in bytes — the
/// paper's Table 2 shape.
#[test]
fn byte_compaction_at_scale() {
    for name in ["256.bzip2", "300.twolf"] {
        let w = workloads::by_name(name).unwrap();
        let src = w.source(1.0);
        let session = Session::compile(&src).unwrap();
        let trace =
            session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        let fp = session.fp(&trace);
        let opt = session.opt(&trace, &OptConfig::default());
        let full = fp.graph().size().bytes();
        let compact = opt.graph().size(false).bytes();
        assert!(
            compact * 3 < full,
            "{name}: expected >=3x byte compaction, got {full}/{compact}"
        );
    }
}

/// The LP slicer agrees with FP on a workload with calls and aliasing.
#[test]
fn workload_lp_equivalence() {
    let w = workloads::by_name("197.parser").unwrap();
    let src = w.source(0.03);
    let session = Session::compile(&src).unwrap();
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    let fp = session.fp(&trace);
    let dir = std::env::temp_dir().join("dynslice-it");
    std::fs::create_dir_all(&dir).unwrap();
    let lp = session.lp(&trace, dir.join("parser.bin")).unwrap();
    for c in pick_cells(fp.graph().last_def.keys().copied(), 5) {
        let q = Criterion::CellLastDef(c);
        let a = fp.slice(&q).expect("fp");
        let (b, stats) = lp.slice_detailed(q).unwrap().expect("lp");
        assert_eq!(a.stmts, b.stmts, "cell {c:?}");
        assert!(stats.passes >= 1);
    }
}

/// Dynamic slices are much smaller than the executed-statement set (the
/// paper's Table 1 "Benefit" columns: USE/SS between 2.46x and 56x).
#[test]
fn slices_are_smaller_than_use() {
    let w = workloads::by_name("256.bzip2").unwrap();
    let src = w.source(0.1);
    let session = Session::compile(&src).unwrap();
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    let use_count = trace.unique_stmts_executed();
    let opt = session.opt(&trace, &OptConfig::default());
    let cells = pick_cells(opt.graph().last_def.keys().copied(), 10);
    let total: usize = cells
        .iter()
        .map(|c| opt.slice(&Criterion::CellLastDef(*c)).map_or(0, |s| s.len()))
        .sum();
    let avg = total as f64 / cells.len() as f64;
    assert!(
        avg < use_count as f64,
        "average slice {avg} should be below USE {use_count}"
    );
}

/// Specialization policies are all lossless (ablation guard).
#[test]
fn specialization_policies_agree() {
    let src = "global int a[4];
         fn main() {
           int i;
           for (i = 0; i < 40; i = i + 1) {
             if (i % 2) { a[i % 4] = a[(i + 1) % 4] + 1; } else { a[i % 4] = i; }
           }
           print a[0] + a[1];
         }";
    let session = Session::compile(src).unwrap();
    let trace = session.run(vec![]);
    let fp = session.fp(&trace);
    for policy in [SpecPolicy::None, SpecPolicy::HotPaths, SpecPolicy::AllPaths] {
        let opt =
            session.opt(&trace, &OptConfig { spec: policy.clone(), ..OptConfig::default() });
        for c in pick_cells(fp.graph().last_def.keys().copied(), 6) {
            let q = Criterion::CellLastDef(c);
            assert_eq!(
                fp.slice(&q).unwrap().stmts,
                opt.slice(&q).unwrap().stmts,
                "policy {policy:?}, cell {c:?}"
            );
        }
    }
}

/// The SEQUITUR baseline round-trips dependence label streams and the OPT
/// transformations beat it on compression of hot-loop labels (§4.1).
#[test]
fn sequitur_vs_opt_compression() {
    let w = workloads::by_name("164.gzip").unwrap();
    let src = w.source(0.1);
    let session = Session::compile(&src).unwrap();
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    let fp = session.fp(&trace);
    let opt = session.opt(&trace, &OptConfig::default());
    // Compress the full graph's size-equivalent token stream: one token per
    // stored pair (delta-encoded timestamps compress like the paper's label
    // lists).
    let full_pairs = fp.graph().size().pairs;
    let tokens: Vec<u64> = (0..full_pairs).map(|i| i % 64).collect();
    let grammar = dynslice::sequitur::compress(&tokens);
    assert_eq!(grammar.expand(), tokens);
    let opt_pairs = opt.graph().size(false).pairs;
    assert!(opt_pairs < full_pairs, "OPT must store fewer pairs");
}

/// The size model is a fixed function of representation counts, so a
/// change to how the graph stores its parts must not move it: `size(false)`
/// of one suite program is pinned field by field.
#[test]
fn compact_size_model_is_pinned() {
    let w = workloads::by_name("300.twolf").unwrap();
    let session = Session::compile(&w.source(0.05)).unwrap();
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    let opt = session.opt(&trace, &OptConfig::default());
    assert_eq!(
        opt.graph().size(false),
        dynslice::GraphSize {
            nodes: 179,
            slots: 3622,
            static_edges: 4043,
            dynamic_edges: 1378,
            pairs: 5645,
            shortcut_stmts: 0,
        }
    );
    // Every closure's skip list, as the size model counts them.
    assert_eq!(opt.graph().size(true).shortcut_stmts, 50_279);
}

/// FNV-1a 64 over `bytes`, continuing from `h`.
fn fnv1a64(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3))
}

/// FNV-1a 64 over a snapshot's section payloads, each preceded by its
/// length, skipping the framing: the header (magic, format version,
/// provenance digest), the section tags and the checksum words. A pin
/// over these bytes names the graph the build produced, not the version
/// or checksum of the file format that carries it. The dynamic-label
/// section is hashed as `graph`'s edges and their labels instead
/// ([`dyn_digest`]), so the pin does not depend on how labels are laid out.
fn payload_digest(bytes: &[u8], graph: &dynslice::CompactGraph) -> u64 {
    // magic (8), version (4), digest (8); then per section: tag (1),
    // length (8), payload, checksum (8).
    const TAG_DYN: u8 = 5;
    let mut pos = 20;
    let mut h = 0xcbf2_9ce4_8422_2325;
    while pos < bytes.len() {
        let len = u64::from_le_bytes(bytes[pos + 1..pos + 9].try_into().unwrap());
        let payload = &bytes[pos + 9..pos + 9 + len as usize];
        if bytes[pos] == TAG_DYN {
            h = dyn_digest(h, graph);
        } else {
            h = fnv1a64(h, &len.to_le_bytes());
            h = fnv1a64(h, payload);
        }
        pos += 9 + payload.len() + 8;
    }
    assert_eq!(pos, bytes.len(), "sections end where the file ends");
    h
}

/// FNV-1a 64 over every dynamic edge of `graph` with its labels, as
/// [`dynslice::CompactGraph::edge_labels`] lists them (rows by key, edges
/// by target, pairs by use timestamp), continuing from `h`.
fn dyn_digest(mut h: u64, graph: &dynslice::CompactGraph) -> u64 {
    use dynslice::graph::EdgeRow;
    for e in graph.edge_labels() {
        let (kind, key) = match e.row {
            EdgeRow::Use(occ, k) => (0u8, u64::from(occ) << 8 | u64::from(k)),
            EdgeRow::Control(key) => (1, u64::from(key)),
        };
        h = fnv1a64(h, &[kind]);
        h = fnv1a64(h, &key.to_le_bytes());
        h = fnv1a64(h, &e.target.to_le_bytes());
        h = fnv1a64(h, &(e.labels.len() as u64).to_le_bytes());
        for (tu, td) in e.labels {
            h = fnv1a64(h, &tu.to_le_bytes());
            h = fnv1a64(h, &td.to_le_bytes());
        }
    }
    h
}

/// The OPT builder's exact output on three branchy, pointer-heavy suite
/// programs under the default configuration, with every optimization off,
/// and without path specialization, and on the other seven suite programs
/// under the default configuration: the section payloads of each build's
/// snapshot hash to a recorded digest, so a rewrite of the build pass
/// cannot move one byte of the graph it produces. The pins cover the
/// payloads only, so a change to the snapshot framing (format version,
/// section checksum) leaves them standing, and the dynamic labels as
/// edges and pairs, so a change to how they are laid out does too.
#[test]
fn suite_builds_match_pinned_digests() {
    use dynslice::{build_compact, snapshot, Snapshot};
    let no_spec = || OptConfig { spec: SpecPolicy::None, ..Default::default() };
    for (name, config, pinned) in [
        ("099.go", OptConfig::default(), 0x864c_cdc3_15e9_462fu64),
        ("300.twolf", OptConfig::default(), 0x49a6_d319_bad7_eec6),
        ("181.mcf", OptConfig::default(), 0xbbfc_83f0_108b_92e3),
        ("099.go", OptConfig::none(), 0x7b29_80f1_c492_d4a2),
        ("300.twolf", OptConfig::none(), 0x56e9_30a5_a06f_40a8),
        ("181.mcf", OptConfig::none(), 0x63d7_3be2_16b9_3f5d),
        ("099.go", no_spec(), 0x5664_be5f_c5ea_24ba),
        ("300.twolf", no_spec(), 0x8345_d395_cd91_0c62),
        ("181.mcf", no_spec(), 0x162f_32d6_e6f3_7441),
        ("256.bzip2", OptConfig::default(), 0x6493_aedd_c06e_432b),
        ("255.vortex", OptConfig::default(), 0xeecd_9ed4_cd9e_1d2c),
        ("197.parser", OptConfig::default(), 0x33a5_af42_f736_fb20),
        ("164.gzip", OptConfig::default(), 0x2756_828c_9fb6_980e),
        ("134.perl", OptConfig::default(), 0x71b7_58d9_fa0c_af90),
        ("130.li", OptConfig::default(), 0xa6fd_6395_11ae_a593),
        ("126.gcc", OptConfig::default(), 0x1698_b5c9_2f20_9914),
    ] {
        let w = workloads::by_name(name).unwrap();
        let src = w.source(0.2);
        let session = Session::compile(&src).unwrap();
        let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        assert!(!trace.truncated, "{name}");
        let graph = build_compact(&session.program, &session.analysis, &trace.events, &config);
        let label = format!("{name} {config:?}");
        let snap = Snapshot { source: src, input: w.input.clone(), config, graph };
        let digest = payload_digest(&snapshot::encode(&snap), &snap.graph);
        assert_eq!(digest, pinned, "{label}: snapshot payloads moved");
    }
}

/// The run-layout invariant: no two edges of one dynamic edge row hold
/// the same use timestamp, on every suite program under the three
/// configurations the digests above pin. A row's own labels are one run
/// sorted by use timestamp, each pair naming the edge that owns it, so
/// this is what lets one binary search answer for the whole row; a row
/// that also reaches shared runs takes the first that holds the timestamp.
/// (`tests/differential.rs` checks it on random programs.)
#[test]
fn edge_rows_never_share_a_use_timestamp() {
    use dynslice::build_compact;
    let no_spec = OptConfig { spec: SpecPolicy::None, ..Default::default() };
    for w in workloads::suite() {
        let src = w.source(0.2);
        let session = Session::compile(&src).unwrap();
        let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
        assert!(!trace.truncated, "{}", w.name);
        for config in [OptConfig::default(), OptConfig::none(), no_spec.clone()] {
            let graph = build_compact(&session.program, &session.analysis, &trace.events, &config);
            assert_eq!(graph.shared_row_timestamps(), 0, "{} {config:?}", w.name);
        }
    }
}

/// One run per edge row, pinned on one deep query: the first of 32 picked
/// cells of 300.twolf at scale 0.3, one of perfbench's deep-slice
/// criteria. Probing each row's channels in discovery order, its slice
/// made 81,367 label searches; longest channel first, 63,936; with each
/// row's own labels in one run, 27,545.
#[test]
fn deep_twolf_query_label_searches_are_bounded() {
    let w = workloads::by_name("300.twolf").unwrap();
    let session = Session::compile(&w.source(0.3)).unwrap();
    let trace = session.run_with(VmOptions { input: w.input.clone(), ..Default::default() });
    let opt = session.opt(&trace, &OptConfig::default());
    let cell = pick_cells(opt.graph().last_def.keys().copied(), 32)[0];
    let (slice, stats) = opt.slice_with_stats(&Criterion::CellLastDef(cell)).unwrap();
    assert_eq!(slice.stmts.len(), 789, "a different query");
    assert!(stats.label_searches <= 28_000, "{} label searches", stats.label_searches);
}
