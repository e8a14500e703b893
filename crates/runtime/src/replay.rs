//! Forward trace replay: drives a visitor through every executed statement.
//!
//! The trace records only block entries and memory cells; this engine walks
//! the statements of each traced block, pairs loads/stores with their `Addr`
//! events, pauses at calls (the callee's events follow inline) and resumes
//! callers after `FrameExit`. All graph builders (FP, OPT, and the LP
//! record generator) are visitors over this engine, which guarantees they
//! attribute defs and uses to identical statement instances.

use dynslice_ir::{BlockId, FuncId, Program, Rvalue, StmtId, StmtKind, StmtPos};

use crate::trace::{FrameId, TraceEvent};
use crate::value::Cell;

/// Context for one executed statement (plain statement or terminator).
#[derive(Copy, Clone, Debug)]
pub struct StmtCx {
    /// Activation executing the statement.
    pub frame: FrameId,
    /// Function containing the statement.
    pub func: FuncId,
    /// Block containing the statement.
    pub block: BlockId,
    /// Position within the block.
    pub pos: StmtPos,
    /// Statement id.
    pub stmt: StmtId,
    /// The memory cell touched, for loads and stores.
    pub cell: Option<Cell>,
    /// Whether this statement is a call-assign (its `Ret` use resolves when
    /// [`ReplayVisitor::call_returned`] fires).
    pub is_call: bool,
}

/// Callbacks invoked in execution order during replay.
///
/// Default implementations ignore the event, so visitors implement only
/// what they need.
pub trait ReplayVisitor {
    /// A new activation begins.
    fn frame_enter(
        &mut self,
        frame: FrameId,
        func: FuncId,
        call: Option<(FrameId, StmtId)>,
    ) {
        let _ = (frame, func, call);
    }

    /// An activation enters a block.
    fn block_enter(&mut self, frame: FrameId, func: FuncId, block: BlockId) {
        let _ = (frame, func, block);
    }

    /// A statement (or terminator) executed.
    fn stmt(&mut self, cx: StmtCx) {
        let _ = cx;
    }

    /// The call-assign `stmt` in `frame` resumed after its callee returned;
    /// this is where the call's destination variable is defined.
    fn call_returned(&mut self, frame: FrameId, func: FuncId, block: BlockId, stmt: StmtId) {
        let _ = (frame, func, block, stmt);
    }

    /// An activation returned.
    fn frame_exit(&mut self, frame: FrameId) {
        let _ = frame;
    }
}

#[derive(Debug)]
struct ReplayFrame {
    frame: FrameId,
    func: FuncId,
    block: BlockId,
    stmt_idx: usize,
    /// Whether the frame is paused at a call-assign (at `stmt_idx`).
    in_call: bool,
}

/// Replays `events` over `program`, invoking `visitor` for every executed
/// statement instance.
///
/// Truncated traces (step-limited runs) are tolerated: replay simply stops
/// at the end of the event stream.
///
/// # Panics
/// Panics on malformed traces (events that could not have been produced by
/// the VM for this program).
pub fn replay<V: ReplayVisitor>(program: &Program, events: &[TraceEvent], visitor: &mut V) {
    let mut stack: Vec<ReplayFrame> = Vec::new();
    let mut i = 0;
    while i < events.len() {
        match events[i] {
            TraceEvent::FrameEnter { frame, func, call_stmt, caller } => {
                i += 1;
                let call = match (caller, call_stmt) {
                    (Some(c), Some(s)) => Some((c, s)),
                    _ => None,
                };
                visitor.frame_enter(frame, func, call);
                stack.push(ReplayFrame {
                    frame,
                    func,
                    block: BlockId(0),
                    stmt_idx: 0,
                    in_call: false,
                });
                // The matching Block event follows and triggers the drain.
            }
            TraceEvent::Block { frame, block } => {
                i += 1;
                let top = stack.last_mut().expect("block event with no active frame");
                assert_eq!(top.frame, frame, "block event for a non-top frame");
                top.block = block;
                top.stmt_idx = 0;
                top.in_call = false;
                visitor.block_enter(frame, top.func, block);
                drain(program, events, &mut i, top, visitor);
            }
            TraceEvent::FrameExit { frame } => {
                i += 1;
                let top = stack.pop().expect("frame exit with no active frame");
                assert_eq!(top.frame, frame, "frame exit for a non-top frame");
                visitor.frame_exit(frame);
                if let Some(caller) = stack.last_mut() {
                    assert!(caller.in_call, "callee returned but caller was not at a call");
                    let bb = program.func(caller.func).block(caller.block);
                    let stmt = bb.stmts[caller.stmt_idx].id;
                    visitor.call_returned(caller.frame, caller.func, caller.block, stmt);
                    caller.stmt_idx += 1;
                    caller.in_call = false;
                    drain(program, events, &mut i, caller, visitor);
                }
            }
            TraceEvent::Addr(_) => {
                panic!("stray address event at index {i}: trace out of sync with program");
            }
        }
    }
}

/// Delivers statements of the top frame's current block until a call pauses
/// the frame, the terminator is delivered, or the event stream runs dry.
fn drain<V: ReplayVisitor>(
    program: &Program,
    events: &[TraceEvent],
    i: &mut usize,
    top: &mut ReplayFrame,
    visitor: &mut V,
) {
    let bb = program.func(top.func).block(top.block);
    while top.stmt_idx < bb.stmts.len() {
        let st = &bb.stmts[top.stmt_idx];
        let needs_addr = dynslice_ir::defuse::num_addr_events(&st.kind) > 0;
        let cell = if needs_addr {
            match events.get(*i) {
                Some(TraceEvent::Addr(c)) => {
                    *i += 1;
                    Some(*c)
                }
                // Truncated trace: the VM stopped before this access.
                _ => return,
            }
        } else {
            None
        };
        let is_call = matches!(st.kind, StmtKind::Assign { rv: Rvalue::Call { .. }, .. });
        visitor.stmt(StmtCx {
            frame: top.frame,
            func: top.func,
            block: top.block,
            pos: StmtPos::Stmt(top.stmt_idx as u32),
            stmt: st.id,
            cell,
            is_call,
        });
        if is_call {
            top.in_call = true;
            return; // FrameEnter follows
        }
        top.stmt_idx += 1;
    }
    // Deliver the terminator only when a following event (the next block,
    // the frame exit, or anything else) proves the block completed; a
    // truncated trace may have stopped before the terminator ran.
    if *i < events.len() {
        visitor.stmt(StmtCx {
            frame: top.frame,
            func: top.func,
            block: top.block,
            pos: StmtPos::Term,
            stmt: bb.term_id,
            cell: None,
            is_call: false,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vm::{run, VmOptions};
    use dynslice_lang::compile;

    /// Collects the statement instances replay delivers.
    #[derive(Default)]
    struct Collector {
        stmts: Vec<StmtId>,
        frames_entered: u32,
        frames_exited: u32,
        blocks: u32,
        call_returns: Vec<StmtId>,
        cells: Vec<Cell>,
    }

    impl ReplayVisitor for Collector {
        fn frame_enter(&mut self, _f: FrameId, _fn: FuncId, _c: Option<(FrameId, StmtId)>) {
            self.frames_entered += 1;
        }
        fn block_enter(&mut self, _f: FrameId, _fn: FuncId, _b: BlockId) {
            self.blocks += 1;
        }
        fn stmt(&mut self, cx: StmtCx) {
            self.stmts.push(cx.stmt);
            if let Some(c) = cx.cell {
                self.cells.push(c);
            }
        }
        fn call_returned(&mut self, _f: FrameId, _fn: FuncId, _b: BlockId, stmt: StmtId) {
            self.call_returns.push(stmt);
        }
        fn frame_exit(&mut self, _f: FrameId) {
            self.frames_exited += 1;
        }
    }

    fn replay_src(src: &str, input: Vec<i64>) -> (dynslice_ir::Program, crate::trace::Trace, Collector) {
        let p = compile(src).expect("compiles");
        let t = run(&p, VmOptions { input, ..Default::default() });
        let mut c = Collector::default();
        replay(&p, &t.events, &mut c);
        (p, t, c)
    }

    #[test]
    fn replay_delivers_every_executed_statement() {
        let (_, t, c) = replay_src(
            "fn main() {
               int s = 0;
               int i;
               for (i = 0; i < 5; i = i + 1) { s = s + i; }
               print s;
             }",
            vec![],
        );
        assert_eq!(c.stmts.len() as u64, t.stmts_executed);
    }

    #[test]
    fn replay_matches_vm_across_calls() {
        let (_, t, c) = replay_src(
            "fn fib(int n) -> int {
               if (n < 2) { return n; }
               return fib(n - 1) + fib(n - 2);
             }
             fn main() { print fib(8); }",
            vec![],
        );
        assert_eq!(c.stmts.len() as u64, t.stmts_executed);
        assert_eq!(c.frames_entered, t.frames);
        assert_eq!(c.frames_exited, t.frames);
        // Every call's return resumed its call-assign.
        assert_eq!(c.call_returns.len() as u32, t.frames - 1);
    }

    #[test]
    fn replay_pairs_cells_with_memory_ops() {
        let (_, t, c) = replay_src(
            "global int a[3];
             fn main() {
               int i;
               for (i = 0; i < 3; i = i + 1) { a[i] = i; }
               print a[0] + a[1] + a[2];
             }",
            vec![],
        );
        let addr_events =
            t.events.iter().filter(|e| matches!(e, TraceEvent::Addr(_))).count();
        assert_eq!(c.cells.len(), addr_events);
        // Three stores to distinct cells.
        let mut stored = c.cells.clone();
        stored.truncate(3);
        stored.dedup();
        assert_eq!(stored.len(), 3);
    }

    #[test]
    fn truncated_trace_replays_prefix() {
        let p = compile("fn main() { while (1) { int x = input(); print x; } }").unwrap();
        let t = run(&p, VmOptions { max_steps: 500, input: vec![1] });
        assert!(t.truncated);
        let mut c = Collector::default();
        replay(&p, &t.events, &mut c);
        // Replay covers the executed prefix to within one block of slack:
        // the cut may fall mid-block, where replay delivers the remaining
        // event-free statements of the entered block (or skips the final
        // terminator the VM never reached).
        let replayed = c.stmts.len() as u64;
        assert!(replayed + 10 >= t.stmts_executed, "{replayed} vs {}", t.stmts_executed);
        assert!(replayed <= t.stmts_executed + 10, "{replayed} vs {}", t.stmts_executed);
    }

    #[test]
    fn nested_calls_resume_in_order() {
        let (_, _, c) = replay_src(
            "fn g(int x) -> int { return x * 2; }
             fn f(int x) -> int { return g(x) + 1; }
             fn main() { print f(f(1)); }",
            vec![],
        );
        // main calls f twice, each f calls g once: 4 call returns.
        assert_eq!(c.call_returns.len(), 4);
    }
}
