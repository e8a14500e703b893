//! Table 5 — preprocessing time, LP vs OPT: LP only flattens the trace to
//! disk; OPT builds the compacted graph.

use dynslice::OptConfig;
use dynslice_bench::*;

fn main() {
    header("Table 5", "preprocessing time: LP vs OPT");
    println!("   (median of {PREPROCESS_RUNS} builds per program and backend)");
    println!("{:<12} {:>12} {:>12} {:>10}", "program", "OPT (ms)", "LP (ms)", "LP/OPT");
    let dir = std::env::temp_dir().join("dynslice-bench");
    std::fs::create_dir_all(&dir).unwrap();
    for p in prepare_all() {
        let opt = median_time(PREPROCESS_RUNS, || p.session.opt(&p.trace, &OptConfig::default()));
        let lp = median_time(PREPROCESS_RUNS, || {
            p.session.lp(&p.trace, dir.join(format!("{}.t5", p.name))).unwrap()
        });
        println!(
            "{:<12} {:>12} {:>12} {:>10.2}",
            p.name,
            ms(opt),
            ms(lp),
            lp.as_secs_f64() / opt.as_secs_f64().max(1e-9)
        );
    }
    println!("(paper: LP preprocessing is 0.22x-0.62x of OPT's)");
}
