//! Table 4 — OPT preprocessing time: turning the execution trace into the
//! compacted dependence graph, in total and split by layer.
//!
//! The layers are the three stages of `build_compact`: Ball–Larus numbering,
//! the profiling pass and the specialization plan ("paths"); the static
//! node graph and the build plan beside it ("nodes"); and
//! `CompactGraph::build`, which segments the trace into node executions and
//! replays it, consuming the build plan ("compact"). Each column is its own
//! median, so the stages need not add up to the total exactly.

use dynslice::{
    profile_trace, BuildPlan, CompactGraph, NodeGraph, OptConfig, ProgramPaths, SpecPlan,
};
use dynslice_bench::*;

fn main() {
    header("Table 4", "preprocessing time for OPT");
    println!("   (median of {PREPROCESS_RUNS} builds per program and column)");
    println!(
        "{:<12} {:>14} {:>11} {:>11} {:>11} {:>12}",
        "program", "preprocess", "paths", "nodes", "compact", "trace events"
    );
    let config = OptConfig::default();
    for p in prepare_all() {
        let (program, analysis) = (&p.session.program, &p.session.analysis);
        let events = &p.trace.events;
        let total = median_time(PREPROCESS_RUNS, || p.session.opt(&p.trace, &config));
        let plan_for = |paths: &ProgramPaths| {
            let profile = profile_trace(paths, events);
            SpecPlan::new(program, paths, Some(&profile), &config.spec)
        };
        let paths_t = median_time(PREPROCESS_RUNS, || plan_for(&ProgramPaths::compute(program)));
        let paths = ProgramPaths::compute(program);
        let spec = plan_for(&paths);
        let build_nodes = || NodeGraph::build(program, analysis, &spec, &config);
        let nodes_t = median_time(PREPROCESS_RUNS, build_nodes);
        // Each build consumes a node graph and its build plan; clone them
        // outside the timing.
        let built = build_nodes();
        let mut copies: Vec<(NodeGraph, BuildPlan)> =
            (0..PREPROCESS_RUNS).map(|_| built.clone()).collect();
        let compact_t = median_time(PREPROCESS_RUNS, || {
            let (nodes, plan) = copies.pop().expect("one copy per run");
            CompactGraph::build(program, analysis, &paths, nodes, plan, events)
        });
        println!(
            "{:<12} {:>11} ms {:>8} ms {:>8} ms {:>8} ms {:>12}",
            p.name,
            ms(total),
            ms(paths_t),
            ms(nodes_t),
            ms(compact_t),
            events.len()
        );
    }
}
