//! Graphviz (dot) export of dependence graphs and slices — the visual
//! counterpart of the paper's Figs. 1–11, generated from real runs.

use std::collections::BTreeSet;
use std::fmt::Write as _;

use dynslice_ir::{Program, StmtId};

use crate::compact::CompactGraph;
use crate::nodes::{CdRes, NodeKind, UseRes};

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn stmt_label(program: &Program, s: StmtId) -> String {
    let loc = program.stmt_loc(s);
    let f = program.func(loc.func);
    match loc.pos {
        dynslice_ir::StmtPos::Stmt(i) => {
            let text = dynslice_ir::pretty::print_function(program, loc.func);
            // Cheap per-statement rendering: reuse the pretty printer line.
            let needle = format!("{}: ", s);
            for line in text.lines() {
                if let Some(pos) = line.find(&needle) {
                    return line[pos + needle.len()..].trim().to_string();
                }
            }
            format!("{} stmt {i}", f.name)
        }
        dynslice_ir::StmtPos::Term => format!("{} {} terminator", f.name, loc.block),
    }
}

/// Renders the static component of a compacted graph: one cluster per
/// node (blocks and specialized paths), static edges solid, use-use edges
/// dashed, control edges dotted with their `δ`. Dynamic edges are drawn
/// only when `include_dynamic` (they can be numerous).
pub fn compact_to_dot(program: &Program, graph: &CompactGraph, include_dynamic: bool) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph dydg {{");
    let _ = writeln!(out, "  rankdir=BT; node [shape=box, fontsize=9];");
    let ng = &graph.nodes;
    for (ni, node) in ng.nodes.iter().enumerate() {
        let title = match &node.kind {
            NodeKind::Block(b) => format!("{} {}", program.func(node.func).name, b),
            NodeKind::Path(p) => {
                format!("{} path#{p} {:?}", program.func(node.func).name, node.blocks)
            }
        };
        let _ = writeln!(out, "  subgraph cluster_{ni} {{ label=\"{}\";", esc(&title));
        let base = ng.node_base[ni];
        for (flat, stmt) in node.stmts.iter().enumerate() {
            let occ = base + flat as u32;
            let _ = writeln!(
                out,
                "    o{occ} [label=\"{}: {}\"];",
                stmt,
                esc(&stmt_label(program, *stmt))
            );
        }
        let _ = writeln!(out, "  }}");
    }
    // Static edges.
    let mut cd_done = BTreeSet::new();
    for occ in 0..ng.num_occs() as u32 {
        for res in &ng.use_res[occ as usize] {
            match res {
                UseRes::StaticDu { target, .. } => {
                    let _ = writeln!(out, "  o{occ} -> o{target} [color=black];");
                }
                UseRes::StaticUu { target, .. } => {
                    let _ = writeln!(out, "  o{occ} -> o{target} [style=dashed, label=\"uu\"];");
                }
                _ => {}
            }
        }
        let key = ng.occ_block_key[occ as usize];
        if cd_done.insert(key) {
            if let CdRes::Static { target, delta, .. } = ng.cd_res[occ as usize] {
                let _ = writeln!(
                    out,
                    "  o{key} -> o{target} [style=dotted, label=\"cd δ={delta}\"];"
                );
            }
            if include_dynamic {
                for &(target, run) in graph.cd_edges(key) {
                    if target != u32::MAX {
                        let _ = writeln!(
                            out,
                            "  o{key} -> o{target} [style=dotted, color=red, label=\"r{run}\"];"
                        );
                    }
                }
            }
        }
        if include_dynamic {
            let nuses = ng.use_res[occ as usize].len();
            for k in 0..nuses as u8 {
                for &(target, run) in graph.dyn_edges(occ, k) {
                    if target != u32::MAX {
                        let _ = writeln!(
                            out,
                            "  o{occ} -> o{target} [color=red, label=\"r{run}\"];"
                        );
                    }
                }
            }
        }
    }
    let _ = writeln!(out, "}}");
    out
}

/// Renders a slice over the program text: statements in the slice are
/// filled, the criterion statement double-framed.
pub fn slice_to_dot(program: &Program, slice: &BTreeSet<StmtId>, criterion: StmtId) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "digraph slice {{");
    let _ = writeln!(out, "  rankdir=TB; node [shape=box, fontsize=9];");
    for (fi, f) in program.functions.iter().enumerate() {
        let _ = writeln!(out, "  subgraph cluster_f{fi} {{ label=\"{}\";", esc(&f.name));
        for bb in &f.blocks {
            for st in bb.stmts.iter().map(|s| s.id).chain([bb.term_id]) {
                let mut attrs = String::new();
                if slice.contains(&st) {
                    attrs.push_str(", style=filled, fillcolor=lightblue");
                }
                if st == criterion {
                    attrs.push_str(", peripheries=2");
                }
                let _ = writeln!(
                    out,
                    "    s{} [label=\"{}: {}\"{attrs}];",
                    st.0,
                    st,
                    esc(&stmt_label(program, st))
                );
            }
        }
        let _ = writeln!(out, "  }}");
    }
    let _ = writeln!(out, "}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_compact, OptConfig};
    use dynslice_analysis::ProgramAnalysis;
    use dynslice_runtime::{run, VmOptions};

    fn graph() -> (Program, CompactGraph) {
        let p = dynslice_lang::compile(
            "global int a[2];
             fn main() {
               int i;
               for (i = 0; i < 4; i = i + 1) { a[i % 2] = a[i % 2] + i; }
               print a[0];
             }",
        )
        .unwrap();
        let a = ProgramAnalysis::compute(&p);
        let t = run(&p, VmOptions::default());
        let g = build_compact(&p, &a, &t.events, &OptConfig::default());
        (p, g)
    }

    #[test]
    fn dot_output_is_well_formed() {
        let (p, g) = graph();
        let dot = compact_to_dot(&p, &g, false);
        assert!(dot.starts_with("digraph dydg {"));
        assert!(dot.trim_end().ends_with('}'));
        assert!(dot.contains("cluster_0"));
        assert!(dot.matches("->").count() > 3, "expected several static edges");
        // Dynamic edges add red edges.
        let with_dyn = compact_to_dot(&p, &g, true);
        assert!(with_dyn.matches("color=red").count() > 0);
        assert!(with_dyn.len() > dot.len());
    }

    #[test]
    fn slice_dot_marks_members_and_criterion() {
        let (p, g) = graph();
        let (occ, ts) = g.outputs[0];
        let slice = g.slice(occ, ts, true);
        let dot = slice_to_dot(&p, &slice, g.stmt_of(occ));
        assert_eq!(dot.matches("fillcolor=lightblue").count(), slice.len());
        assert_eq!(dot.matches("peripheries=2").count(), 1);
    }

    #[test]
    fn labels_are_escaped() {
        // Quotes can appear only via names; the escaper itself is checked.
        assert_eq!(esc("a\"b\\c"), "a\\\"b\\\\c");
    }
}
