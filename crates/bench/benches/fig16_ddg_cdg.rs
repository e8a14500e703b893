//! Figure 16 — dyDDG vs dyCDG: the relative share of data and control
//! dependence information, and per-optimization savings within each.

use dynslice::{OptConfig, OptKind};
use dynslice_bench::*;

fn main() {
    header("Figure 16", "dyDDG vs dyCDG size reduction breakdown");
    println!(
        "{:<12} {:>8} {:>8} {:>9} {:>9} | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
        "program", "%data", "%ctl", "data-left", "ctl-left", "OPT-1", "uu", "path", "OPT-3", "cdδ/loc", "OPT-6"
    );
    for p in prepare_all() {
        let opt = p.session.opt(&p.trace, &OptConfig::default());
        let st = &opt.graph().stats;
        let total = (st.total_data + st.total_control).max(1) as f64;
        println!(
            "{:<12} {:>7.1}% {:>7.1}% {:>8.1}% {:>8.1}% | {:>8} {:>8} {:>8} {:>8} {:>8} {:>8}",
            p.name,
            st.total_data as f64 / total * 100.0,
            st.total_control as f64 / total * 100.0,
            st.stored_data_pairs as f64 / st.total_data.max(1) as f64 * 100.0,
            st.stored_control_pairs as f64 / st.total_control.max(1) as f64 * 100.0,
            st.saved(OptKind::LocalDefUse) + st.saved(OptKind::PartialDefUse),
            st.saved(OptKind::UseUse),
            st.saved(OptKind::PathDefUse),
            st.saved(OptKind::SharedData),
            st.saved(OptKind::ControlDelta) + st.saved(OptKind::PathControl),
            st.saved(OptKind::SharedControl),
        );
    }
    println!("(paper: control dependences are a small fraction; data savings dominate)");
}
