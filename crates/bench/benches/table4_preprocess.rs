//! Table 4 — OPT preprocessing time: turning the execution trace into the
//! compacted dependence graph.

use dynslice::OptConfig;
use dynslice_bench::*;

fn main() {
    header("Table 4", "preprocessing time for OPT");
    println!("   (median of {PREPROCESS_RUNS} builds per program)");
    println!("{:<12} {:>14} {:>12}", "program", "preprocess", "trace events");
    for p in prepare_all() {
        let dur = median_time(PREPROCESS_RUNS, || p.session.opt(&p.trace, &OptConfig::default()));
        println!("{:<12} {:>11} ms {:>12}", p.name, ms(dur), p.trace.events.len());
    }
}
