//! Table 8 — preprocessing time: FP vs OPT. The paper found FP *slower*
//! than OPT because FP's per-edge label arrays keep reallocating as they
//! grow; OPT stores far fewer labels.

use dynslice::OptConfig;
use dynslice_bench::*;

fn main() {
    header("Table 8", "preprocessing time: FP vs OPT");
    println!("   (median of {PREPROCESS_RUNS} builds per program and backend)");
    println!("{:<12} {:>12} {:>12} {:>10}", "program", "OPT (ms)", "FP (ms)", "FP/OPT");
    for p in prepare_all() {
        let opt = median_time(PREPROCESS_RUNS, || p.session.opt(&p.trace, &OptConfig::default()));
        let fp = median_time(PREPROCESS_RUNS, || p.session.fp(&p.trace));
        println!(
            "{:<12} {:>12} {:>12} {:>10.2}",
            p.name,
            ms(opt),
            ms(fp),
            fp.as_secs_f64() / opt.as_secs_f64().max(1e-9)
        );
    }
    println!("(paper: FP/OPT between 1.08 and 2.11)");
}
