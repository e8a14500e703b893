//! Property tests: Ball–Larus ids are a bijection onto decoded paths, and
//! any real trace partitions exactly into numbered paths.

use dynslice_ir::Cfg;
use dynslice_profile::{BallLarus, ProgramPaths};
use proptest::prelude::*;

fn program_for(seed: u64) -> dynslice_ir::Program {
    // Small, loopy, branchy programs built from a deterministic seed.
    let branch = seed % 3;
    let loops = seed % 2;
    let src = format!(
        "fn main() {{
           int x = input();
           int i;
           for (i = 0; i < {iters}; i = i + 1) {{
             if (x % {m} == 0) {{ x = x + 1; }} else {{ x = x * 2; }}
             {extra}
           }}
           print x;
         }}",
        iters = 3 + seed % 5,
        m = 2 + branch,
        extra = if loops == 0 {
            "if (x > 100) { x = x - 50; }".to_string()
        } else {
            "int j = 0; while (j < 2) { x = x + j; j = j + 1; }".to_string()
        },
    );
    dynslice_lang::compile(&src).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    #[test]
    fn prop_ids_decode_to_distinct_paths(seed in 0u64..500) {
        let p = program_for(seed);
        for f in &p.functions {
            let cfg = Cfg::new(f);
            let bl = BallLarus::compute(&cfg, f);
            prop_assume!(!bl.overflowed && bl.num_paths < 512);
            let mut seen = std::collections::HashSet::new();
            for id in 0..bl.num_paths {
                let blocks = bl.decode(id);
                prop_assert!(!blocks.is_empty());
                prop_assert!(seen.insert(blocks), "id {id} duplicates a path");
            }
        }
    }

    #[test]
    fn prop_traces_partition_into_numbered_paths(seed in 0u64..500) {
        let p = program_for(seed);
        let paths = ProgramPaths::compute(&p);
        let t = dynslice_runtime::run(
            &p,
            dynslice_runtime::VmOptions { input: vec![seed as i64, 3], ..Default::default() },
        );
        // Walk the main frame's block sequence through the tracker,
        // collecting the blocks of the current path: every completed path
        // id must decode to exactly the blocks it covered.
        let bl = paths.func(p.main);
        let mut tracker = None;
        let mut prev = None;
        let mut current = Vec::new();
        let mut covered = Vec::new();
        let mut all_blocks = Vec::new();
        for ev in &t.events {
            if let dynslice_runtime::TraceEvent::Block { frame, block } = ev {
                if frame.0 != 0 { continue; }
                all_blocks.push(*block);
                match (&mut tracker, prev) {
                    (tr @ None, _) => *tr = Some(bl.start(*block)),
                    (Some(tr), Some(pv)) => {
                        if let Some(done) = bl.step(tr, pv, *block) {
                            prop_assert_eq!(bl.decode(done.id), current.clone());
                            covered.append(&mut current);
                        }
                    }
                    _ => unreachable!(),
                }
                current.push(*block);
                prev = Some(*block);
            }
        }
        if let (Some(tr), Some(pv)) = (tracker, prev) {
            let done = bl.finish(tr, pv);
            prop_assert_eq!(bl.decode(done.id), current.clone());
            covered.append(&mut current);
        }
        prop_assert_eq!(covered, all_blocks, "paths must exactly cover the trace");
    }
}
