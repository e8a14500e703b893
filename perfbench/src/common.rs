//! Run context, result bookkeeping, and the in-process oracle.

use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use dynslice::protocol::{Response, ResponseBody};
use dynslice::{pick_cells, workloads, Criterion, OptConfig, OptSlicer, Session, Slicer};

use crate::spans::Spans;
use crate::stats::Rng;

/// Minimum sample count of a phase whose median is reported: ten
/// samples on either side of it.
pub const MIN_P50: usize = 20;

/// Minimum sample count of a phase whose p90 is reported.
pub const MIN_P90: usize = 100;

/// Everything one run needs to know.
pub struct Ctx {
    /// The release `dynslice` binary.
    pub server_bin: PathBuf,
    /// Scratch directory of this run, relative to the checkout root.
    pub dir: PathBuf,
    pub seed: u64,
    /// Length of the timed window, split between the workload's phases.
    pub seconds: f64,
    /// Self-check mode: programs at a tenth of their scale, one set-up.
    pub tiny: bool,
    /// Self-check mode: the first oracle answer is deliberately wrong.
    pub corrupt_oracle: bool,
    pub spans: Spans,
}

impl Ctx {
    pub fn scale(&self, scale: f64) -> f64 {
        if self.tiny {
            scale / 10.0
        } else {
            scale
        }
    }

    /// The same run with harness tracing off.
    pub fn untraced(&self) -> Ctx {
        Ctx {
            server_bin: self.server_bin.clone(),
            dir: self.dir.clone(),
            seed: self.seed,
            seconds: self.seconds,
            tiny: self.tiny,
            corrupt_oracle: self.corrupt_oracle,
            spans: Spans::new(false),
        }
    }

    pub fn tracing(&self) -> bool {
        self.spans.enabled()
    }

    pub fn rng(&self, stream: u64) -> Rng {
        Rng::new(self.seed.wrapping_mul(0x100_0000_01B3).wrapping_add(stream))
    }
}

/// What a run measured and what went wrong.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    pub metrics: Vec<(String, f64, &'static str)>,
    /// Numbers printed beside the result but not part of it.
    pub details: Vec<(String, f64)>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.retain(|(n, _, _)| n != name);
        self.metrics.push((name.to_string(), value, unit));
    }

    pub fn detail(&mut self, name: &str, value: f64) {
        self.details.push((name.to_string(), value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _, _)| n == name).map(|(_, v, _)| *v)
    }

    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    /// Folds in a phase's own counts.
    pub fn absorb(&mut self, tally: &Tally) {
        self.attempted += tally.attempted;
        self.failed += tally.failed;
        let room = 8usize.saturating_sub(self.problems.len());
        self.problems.extend(tally.problems.iter().take(room).cloned());
    }
}

/// Attempted and failed operations of one phase or client thread.
#[derive(Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        if self.problems.len() < 8 {
            self.problems.push(problem);
        }
    }

    pub fn merge(&mut self, other: Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.problems.extend(other.problems);
        self.problems.truncate(8);
    }
}

/// One suite program, written where the server can read it, with its
/// OPT slicer built in-process as the oracle.
pub struct Program {
    /// Session name and file stem.
    pub label: String,
    pub src: String,
    pub input: Vec<i64>,
    pub path: PathBuf,
    pub opt: OptSlicer,
}

impl Program {
    /// Generates suite workload `name` at `scale`, writes it to
    /// `<dir>/<label>.minic`, and builds the oracle.
    pub fn prepare(
        ctx: &Ctx,
        dir: &Path,
        name: &str,
        label: &str,
        scale: f64,
    ) -> io::Result<Program> {
        let w = workloads::by_name(name)
            .ok_or_else(|| io::Error::other(format!("no suite workload {name}")))?;
        let src = w.source(ctx.scale(scale));
        let path = dir.join(format!("{label}.minic"));
        std::fs::write(&path, &src)?;
        let session = Session::compile(&src).map_err(|d| io::Error::other(d.to_string()))?;
        let trace = session.run(w.input.clone());
        if trace.truncated {
            return Err(io::Error::other(format!("{name} trace truncated")));
        }
        let opt = session.opt(&trace, &OptConfig::default());
        Ok(Program { label: label.to_string(), src, input: w.input, path, opt })
    }

    /// `--preload` entry: `label=path@i1;i2;...`.
    pub fn preload(&self) -> String {
        let tape: Vec<String> = self.input.iter().map(|v| v.to_string()).collect();
        format!("{}={}@{}", self.label, self.path.display(), tape.join(";"))
    }

    /// Every cell the run defined, `n` of them evenly spaced.
    pub fn cells(&self, n: usize) -> Vec<Criterion> {
        pick_cells(self.opt.graph().last_def.keys().copied(), n)
            .into_iter()
            .map(Criterion::CellLastDef)
            .collect()
    }

    /// The oracle's answer: statement ids of the slice, ascending.
    pub fn answer(&self, c: &Criterion) -> io::Result<Vec<u32>> {
        let slice = self.opt.slice(c).map_err(|e| io::Error::other(format!("{c:?}: {e:?}")))?;
        Ok(slice.stmts.iter().map(|s| s.index() as u32).collect())
    }
}

/// One slice request the harness sends, with the answer it must get.
#[derive(Clone)]
pub struct Query {
    pub session: String,
    pub criterion: Criterion,
    pub expect: Arc<Vec<u32>>,
}

/// Criteria with the oracle's answers.
pub type Answered = Vec<(Criterion, Arc<Vec<u32>>)>;

impl Program {
    pub fn answered(&self, criteria: Vec<Criterion>) -> io::Result<Answered> {
        criteria.into_iter().map(|c| Ok((c, Arc::new(self.answer(&c)?)))).collect()
    }
}

/// The answered criteria as slice requests on `session`.
pub fn on_session(session: &str, answered: &Answered) -> Vec<Query> {
    answered
        .iter()
        .map(|(c, a)| Query { session: session.to_string(), criterion: *c, expect: Arc::clone(a) })
        .collect()
}

/// Self-check support: makes the first expected answer wrong.
pub fn corrupt_first(ctx: &Ctx, answered: &mut Answered) {
    if let (true, Some((_, expect))) = (ctx.corrupt_oracle, answered.first_mut()) {
        let mut wrong = (**expect).clone();
        wrong.push(u32::MAX);
        *expect = Arc::new(wrong);
    }
}

/// Checks a slice reply against the oracle; returns the server's service
/// time in µs. `cached` pins the reply's cache flag when set.
pub fn verify(response: &Response, q: &Query, cached: Option<bool>) -> Result<u64, String> {
    match &response.body {
        ResponseBody::Slice { stmts, cached: was_cached, micros, .. } => {
            if stmts.as_slice() != q.expect.as_slice() {
                return Err(format!(
                    "wrong slice for {:?} on `{}`: {} stmts, oracle has {}",
                    q.criterion,
                    q.session,
                    stmts.len(),
                    q.expect.len()
                ));
            }
            if let Some(want) = cached {
                if *was_cached != want {
                    return Err(format!(
                        "slice for {:?} on `{}` answered cached={was_cached}, expected {want}",
                        q.criterion, q.session
                    ));
                }
            }
            Ok(*micros)
        }
        other => Err(format!("slice on `{}` answered {other:?}", q.session)),
    }
}

/// Removes a directory tree, ignoring a missing one.
pub fn remove_dir(path: &Path) {
    if path.exists() {
        std::fs::remove_dir_all(path).ok();
    }
}
