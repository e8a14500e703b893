//! Fidelity tests built from the paper's own running examples (§2–§3):
//! the dyDDG of Fig. 1(a), the local def-use / use-use optimizations of
//! Fig. 2 and Fig. 5, and the path-specialization effect of Fig. 6.

use dynslice::{
    ir::{MemRef, Operand, ProgramBuilder, Rvalue},
    pick_cells, Cell, Criterion, OptConfig, ProgramAnalysis, Session, Slicer as _, SpecPolicy,
};

/// The paper's Fig. 1(a) control-flow shape: a function with blocks
/// 1 -> {2,3} -> 4, where block 1 defines and uses X, block 2 uses X twice,
/// block 3 redefines X, and block 4 uses X. The driver invokes it three
/// times along paths 1-2-4, 1-3-4, 1-2-4 (inputs select the branch).
fn fig1a_program() -> dynslice::Program {
    let mut pb = ProgramBuilder::new();
    let x = pb.global("X", 1);
    let cell0 = Operand::Const(0);

    let f = pb.declare("f", 1);
    let mut fb = pb.define(f);
    let p = fb.param(0);
    let b2 = fb.new_block();
    let b3 = fb.new_block();
    let b4 = fb.new_block();
    // Block 1: X = p; t = X (local def-use, OPT-1a).
    fb.store(MemRef::Direct { region: x, offset: cell0 }, Operand::Var(p));
    let t = fb.var("t");
    fb.assign(t, Rvalue::Load(MemRef::Direct { region: x, offset: cell0 }));
    fb.branch(Operand::Var(p), b2, b3);
    // Block 2: two uses of X (non-local def-use + use-use, Fig. 5).
    fb.switch_to(b2);
    let u1 = fb.var("u1");
    fb.assign(u1, Rvalue::Load(MemRef::Direct { region: x, offset: cell0 }));
    let u2 = fb.var("u2");
    fb.assign(u2, Rvalue::Load(MemRef::Direct { region: x, offset: cell0 }));
    fb.print(Operand::Var(u2));
    fb.jump(b4);
    // Block 3: X = p * 2 (kills block 1's definition).
    fb.switch_to(b3);
    let d = fb.var("d");
    fb.assign(d, Rvalue::Binary(dynslice::ir::BinOp::Mul, Operand::Var(p), Operand::Const(2)));
    fb.store(MemRef::Direct { region: x, offset: cell0 }, Operand::Var(d));
    fb.jump(b4);
    // Block 4: final use of X.
    fb.switch_to(b4);
    let r = fb.var("r");
    fb.assign(r, Rvalue::Load(MemRef::Direct { region: x, offset: cell0 }));
    fb.ret(Some(Operand::Var(r)));
    fb.finish(&mut pb);

    let mut mb = pb.function("main", 0);
    let a = mb.var("a");
    // Three invocations: paths 1-2-4, 1-3-4, 1-2-4 (as in the figure).
    mb.assign(a, Rvalue::Call { func: f, args: vec![Operand::Const(1)] });
    mb.print(Operand::Var(a));
    mb.assign(a, Rvalue::Call { func: f, args: vec![Operand::Const(0)] });
    mb.print(Operand::Var(a));
    mb.assign(a, Rvalue::Call { func: f, args: vec![Operand::Const(1)] });
    mb.print(Operand::Var(a));
    mb.ret(None);
    let main = mb.finish(&mut pb);
    pb.finish(main)
}

#[test]
fn fig1a_slices_agree_and_distinguish_paths() {
    let program = fig1a_program();
    dynslice::ir::validate(&program).expect("valid IR");
    let session = Session::from_program(program);
    let trace = session.run(vec![]);
    assert_eq!(trace.frames, 4); // main + three invocations

    let fp = session.fp(&trace);
    for policy in [SpecPolicy::None, SpecPolicy::HotPaths, SpecPolicy::AllPaths] {
        let opt = session.opt(&trace, &OptConfig { spec: policy, ..OptConfig::default() });
        for k in 0..trace.output.len() {
            let q = Criterion::Output(k);
            assert_eq!(
                fp.slice(&q).unwrap().stmts,
                opt.slice(&q).unwrap().stmts,
                "output {k}"
            );
        }
        // The final X cell slice too.
        let q = Criterion::CellLastDef(Cell::new(0, 0));
        assert_eq!(
            fp.slice(&q).unwrap().stmts,
            opt.slice(&q).unwrap().stmts
        );
    }
}

#[test]
fn fig2_local_def_use_is_label_free() {
    // Fig. 2: the local def-use edge inside block 1 needs no labels.
    // With all transforms off except OPT-1, the only remaining pairs are
    // the non-local dependences.
    let session = Session::from_program(fig1a_program());
    let trace = session.run(vec![]);
    let base = session.opt(&trace, &OptConfig::none());
    let opt1 = session.opt(
        &trace,
        &OptConfig {
            use_use: false,
            spec: SpecPolicy::None,
            share_data: false,
            cd_delta: false,
            cd_local: false,
            share_cd: false,
            ..OptConfig::default()
        },
    );
    // The local X def-use in block 1 executed 3 times: at least those three
    // pairs disappear.
    assert!(
        base.graph().size(false).pairs >= opt1.graph().size(false).pairs + 3,
        "{} vs {}",
        base.graph().size(false).pairs,
        opt1.graph().size(false).pairs
    );
    assert!(opt1.graph().stats.saved(dynslice::OptKind::LocalDefUse) > 0);
}

#[test]
fn fig5_use_use_removes_second_load_labels() {
    // Fig. 5: block 2's second use of X shares the first use's reaching
    // definition; OPT-2b replaces its non-local labeled edge with an
    // unlabeled use-use edge.
    let session = Session::from_program(fig1a_program());
    let trace = session.run(vec![]);
    let without = session.opt(
        &trace,
        &OptConfig { use_use: false, spec: SpecPolicy::None, ..OptConfig::default() },
    );
    let with = session.opt(
        &trace,
        &OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
    );
    assert!(
        with.graph().size(false).pairs < without.graph().size(false).pairs,
        "use-use should eliminate labels: {} vs {}",
        with.graph().size(false).pairs,
        without.graph().size(false).pairs
    );
    assert!(with.graph().stats.saved(dynslice::OptKind::UseUse) > 0);
    // And slices stay identical.
    let fp = session.fp(&trace);
    let q = Criterion::Output(0);
    assert_eq!(fp.slice(&q).unwrap().stmts, with.slice(&q).unwrap().stmts);
}

#[test]
fn fig6_path_specialization_localizes_hot_path() {
    // Fig. 6: specializing path 1-2-4 converts its non-local def-use edges
    // into local (label-free) ones. The hot path (taken 2 of 3 times) is
    // specialized under the profile-guided policy.
    let session = Session::from_program(fig1a_program());
    let trace = session.run(vec![]);
    let nospec = session.opt(
        &trace,
        &OptConfig { spec: SpecPolicy::None, ..OptConfig::default() },
    );
    let spec = session.opt(&trace, &OptConfig::default());
    assert!(
        spec.graph().size(false).pairs < nospec.graph().size(false).pairs,
        "specialization should remove labels: {} vs {}",
        spec.graph().size(false).pairs,
        nospec.graph().size(false).pairs
    );
    // Both the 1-2-4 and 1-3-4 paths ran, so path nodes exist.
    use dynslice::graph::NodeKind;
    let paths = spec
        .graph()
        .nodes
        .nodes
        .iter()
        .filter(|n| matches!(n.kind, NodeKind::Path(_)))
        .count();
    assert!(paths >= 2, "expected both executed paths specialized, got {paths}");
}

#[test]
fn aliasing_partial_elimination_matches_fig3() {
    // Fig. 3: a store through a may-alias pointer intervening between a
    // direct store and its load. OPT-1b keeps a static edge for the common
    // case and adds dynamic labels only when the alias actually bites.
    let src = "
        global int x[1];
        global int y[1];
        fn main() {
          int i;
          for (i = 0; i < 12; i = i + 1) {
            x[0] = i;
            ptr p = &y[0];
            if (i % 4 == 0) { p = &x[0]; }
            *p = 99;            // rarely aliases x[0]
            print x[0];         // usually reads the direct store
          }
        }";
    let session = Session::compile(src).unwrap();
    let trace = session.run(vec![]);
    let opt = session.opt(&trace, &OptConfig { spec: SpecPolicy::None, ..OptConfig::default() });
    let st = &opt.graph().stats;
    // The load of x[0] resolves statically most iterations (partial
    // elimination) and is demoted only when the alias store intervenes.
    let partial =
        st.saved(dynslice::OptKind::PartialDefUse) + st.saved(dynslice::OptKind::LocalDefUse);
    assert!(partial >= 8, "static hits: {partial}, stats {st:?}");
    assert!(st.demoted >= 3, "alias misses should demote: {st:?}");
    // Equivalence under aliasing pressure.
    let fp = session.fp(&trace);
    let analysis = ProgramAnalysis::compute(&session.program);
    let _ = analysis;
    for c in pick_cells(fp.graph().last_def.keys().copied(), 4) {
        let q = Criterion::CellLastDef(c);
        assert_eq!(
            fp.slice(&q).unwrap().stmts,
            opt.slice(&q).unwrap().stmts
        );
    }
}
