//! Table 3 — benefit of shortcut edges: OPT slicing times with and without
//! traversing the precomputed static-chain shortcuts.

use dynslice::{OptConfig, Slicer as _};
use dynslice_bench::*;

fn main() {
    header("Table 3", "benefit of providing shortcuts");
    println!("   (median of {PREPROCESS_RUNS} passes over the queries per column)");
    println!(
        "{:<12} {:>16} {:>16} {:>10}",
        "program", "w/o shortcuts", "with shortcuts", "w/o / with"
    );
    for p in prepare_all() {
        let mut opt = p.session.opt(&p.trace, &OptConfig::default());
        let qs = queries(opt.graph().last_def.keys().copied());
        opt.shortcuts = false;
        let slow = median_time(PREPROCESS_RUNS, || {
            for q in &qs {
                let _ = opt.slice(q);
            }
        });
        opt.shortcuts = true;
        // Warm the memoized closures once, then measure (the paper's
        // shortcuts are precomputed during graph construction).
        for q in &qs {
            let _ = opt.slice(q);
        }
        let fast = median_time(PREPROCESS_RUNS, || {
            for q in &qs {
                let _ = opt.slice(q);
            }
        });
        println!(
            "{:<12} {:>13} ms {:>13} ms {:>10.2}",
            p.name,
            ms(slow),
            ms(fast),
            slow.as_secs_f64() / fast.as_secs_f64().max(1e-9)
        );
    }
    println!("(paper: shortcuts cut average slicing time by >2x on 8 of 10 benchmarks)");
}
