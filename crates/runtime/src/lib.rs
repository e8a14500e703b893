//! Execution substrate for the dynslice system: a MiniC VM that produces
//! control-flow + data-address traces, a forward replay engine that drives
//! graph builders through statement instances, and the flat record stream
//! the LP algorithm re-traverses from disk.
//!
//! This crate replaces the instrumented-Trimaran tracing infrastructure of
//! *Cost Effective Dynamic Program Slicing* (PLDI 2004): the paper's
//! algorithms consume only the trace, never machine state, so everything
//! downstream of [`vm::run`] is faithful to the original system structure.
//!
//! # Example
//!
//! ```
//! use dynslice_runtime::vm::{run, VmOptions};
//!
//! let program = dynslice_lang::compile(
//!     "fn main() { int x = input(); print x * 2; }",
//! ).map_err(|e| e.to_string())?;
//! let trace = run(&program, VmOptions { input: vec![21], ..Default::default() });
//! assert_eq!(trace.output, vec![42]);
//! # Ok::<(), String>(())
//! ```

pub mod records;
pub mod replay;
pub mod trace;
pub mod value;
pub mod vm;

pub use records::{collect_records, ChunkSummary, Record, RecordFile, CHUNK_RECORDS, RECORD_BYTES};
pub use replay::{replay, ReplayVisitor, StmtCx};
pub use trace::{FrameId, Trace, TraceEvent};
pub use value::{clamp_offset, Cell};
pub use vm::{eval_binop, run, VmOptions};
