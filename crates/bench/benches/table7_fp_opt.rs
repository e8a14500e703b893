//! Table 7 — slicing times: FP vs OPT (shortcuts are why OPT wins even
//! though both graphs are in memory).

use dynslice::{OptConfig, Slicer as _};
use dynslice_bench::*;

fn main() {
    header("Table 7", "slicing times: FP vs OPT");
    println!("   (median of {PREPROCESS_RUNS} passes over the queries per column)");
    println!("{:<12} {:>12} {:>12} {:>10}", "program", "FP (ms)", "OPT (ms)", "FP/OPT");
    for p in prepare_all() {
        let fp = p.session.fp(&p.trace);
        let opt = p.session.opt(&p.trace, &OptConfig::default());
        let qs = queries(opt.graph().last_def.keys().copied());
        // Warm OPT's shortcut memos (precomputed at build time in the paper).
        for q in &qs {
            let _ = opt.slice(q);
        }
        let t_fp = median_time(PREPROCESS_RUNS, || {
            for q in &qs {
                let _ = fp.slice(q);
            }
        });
        let t_opt = median_time(PREPROCESS_RUNS, || {
            for q in &qs {
                let _ = opt.slice(q);
            }
        });
        println!(
            "{:<12} {:>12} {:>12} {:>10.2}",
            p.name,
            ms(t_fp),
            ms(t_opt),
            t_fp.as_secs_f64() / t_opt.as_secs_f64().max(1e-9)
        );
    }
    println!("(paper: OPT is consistently faster than FP thanks to shortcut edges)");
}
