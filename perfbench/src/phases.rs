//! Closed-loop traffic phases shared by the workloads. Every client
//! sends its next request only after the previous reply arrived.

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynslice::protocol::{Request, ResponseBody};
use dynslice::{snapshot, OptConfig};

use crate::common::{verify, Ctx, Program, Query, Tally};
use crate::stats::Samples;
use crate::wire::Conn;

/// Runs until `window` has passed and at least `min_ops` were made.
pub struct Budget {
    pub window: Duration,
    pub min_ops: usize,
}

impl Budget {
    fn done(&self, start: Instant, ops: usize) -> bool {
        ops >= self.min_ops && start.elapsed() >= self.window
    }
}

/// Slices on persistent connections.
#[derive(Default)]
pub struct Stream {
    pub latency: Samples,
    /// The server's own service time (`micros` of each reply).
    pub service: Samples,
    /// Client latency minus service time: read, parse, queue, hand-offs,
    /// encode and write.
    pub overhead: Samples,
    pub cached: u64,
    pub elapsed: Duration,
    pub tally: Tally,
    /// The first request and reply line of each query (traced runs).
    pub lines: Vec<(String, String)>,
}

impl Stream {
    pub fn merge(&mut self, other: Stream) {
        self.elapsed += other.elapsed;
        self.latency.extend(&other.latency);
        self.service.extend(&other.service);
        self.overhead.extend(&other.overhead);
        self.cached += other.cached;
        self.tally.merge(other.tally);
        self.lines.extend(other.lines);
    }
}

/// Where each client of a stream is in its cycle through the queries.
/// Kept across rounds, so that over a run every query is asked equally
/// often (to within one pass) however the window cuts the rounds.
pub struct Cursors(Vec<usize>);

impl Cursors {
    /// Client `k` of `clients` starts `k/clients` of the way in.
    pub fn new(clients: usize, queries: usize) -> Cursors {
        Cursors((0..clients).map(|k| k * queries / clients).collect())
    }
}

/// One connection per cursor, each cycling through `queries` from where
/// it stopped last time, checking every reply against the oracle.
pub fn stream(
    ctx: &Ctx,
    addr: &str,
    cursors: &mut Cursors,
    queries: &[Query],
    cached: Option<bool>,
    budget: &Budget,
    parent: u64,
) -> io::Result<Stream> {
    let clients = cursors.0.len();
    let mut conns = Vec::new();
    for _ in 0..clients {
        let mut conn = Conn::dial(addr)?;
        conn.hello()?;
        conns.push(conn);
    }
    let start = Instant::now();
    let per_client = Budget { window: budget.window, min_ops: budget.min_ops.div_ceil(clients) };
    let parts: Vec<io::Result<Stream>> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(cursors.0.iter_mut())
            .map(|(conn, cursor)| {
                let per_client = &per_client;
                scope.spawn(move || client_loop(ctx, conn, queries, cursor, cached, per_client, start, parent))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread")).collect()
    });
    let mut out = Stream::default();
    for part in parts {
        out.merge(part?);
    }
    out.elapsed = start.elapsed();
    Ok(out)
}

#[allow(clippy::too_many_arguments)]
fn client_loop(
    ctx: &Ctx,
    mut conn: Conn,
    queries: &[Query],
    cursor: &mut usize,
    cached: Option<bool>,
    budget: &Budget,
    start: Instant,
    parent: u64,
) -> io::Result<Stream> {
    let mut out = Stream::default();
    let mut seen = vec![false; queries.len()];
    while !budget.done(start, out.latency.len()) {
        let k = *cursor % queries.len();
        let q = &queries[k];
        *cursor += 1;
        let id = conn.fresh_id();
        let request = Request::slice_in(id, &q.session, &q.criterion);
        out.tally.attempted += 1;
        let (response, took) = conn.traced(&ctx.spans, "client.slice", parent, &request)?;
        match verify(&response, q, cached) {
            Ok(micros) => {
                out.latency.push(took);
                let service_ms = micros as f64 / 1e3;
                out.service.push_ms(service_ms);
                out.overhead.push_ms(took.as_secs_f64() * 1e3 - service_ms);
                if matches!(response.body, ResponseBody::Slice { cached: true, .. }) {
                    out.cached += 1;
                }
            }
            Err(problem) => out.tally.fail(problem),
        }
        if ctx.tracing() && !seen[k] {
            seen[k] = true;
            out.lines.push((conn.last_request().to_string(), conn.last_reply().to_string()));
        }
    }
    Ok(out)
}

/// Fresh connections, one after another: dial, `hello`, one slice, close.
#[derive(Default)]
pub struct Oneshot {
    pub total: Samples,
    pub slice: Samples,
    pub tally: Tally,
}

impl Oneshot {
    pub fn merge(&mut self, other: Oneshot) {
        self.total.extend(&other.total);
        self.slice.extend(&other.slice);
        self.tally.merge(other.tally);
    }
}

/// Cycles through `queries` from `cursor` on, like a stream's client.
pub fn oneshot(
    ctx: &Ctx,
    addr: &str,
    cursor: &mut usize,
    queries: &[Query],
    cached: Option<bool>,
    budget: &Budget,
    parent: u64,
) -> io::Result<Oneshot> {
    let mut out = Oneshot::default();
    let start = Instant::now();
    while !budget.done(start, out.total.len()) {
        let q = &queries[*cursor % queries.len()];
        *cursor += 1;
        out.tally.attempted += 1;
        let t0 = Instant::now();
        let mut conn = Conn::dial(addr)?;
        let dialed = Instant::now();
        ctx.spans.record("client.connect", parent, 0, t0, dialed);
        let hello = conn.hello()?;
        ctx.spans.record("client.hello", parent, 0, dialed, dialed + hello);
        let id = conn.fresh_id();
        let request = Request::slice_in(id, &q.session, &q.criterion);
        let (response, took) = conn.traced(&ctx.spans, "client.slice", parent, &request)?;
        let total = t0.elapsed();
        drop(conn);
        match verify(&response, q, cached) {
            Ok(_) => {
                out.total.push(total);
                out.slice.push(took);
            }
            Err(problem) => out.tally.fail(problem),
        }
    }
    Ok(out)
}

/// A program tenants load variants of.
pub struct TenantProgram {
    pub label: String,
    pub src: String,
    pub input: Vec<i64>,
}

impl TenantProgram {
    pub fn of(p: &Program) -> TenantProgram {
        TenantProgram { label: p.label.clone(), src: p.src.clone(), input: p.input.clone() }
    }
}

/// Sequential tenants, each on a fresh connection: `hello`, a blocking
/// `load` of a program variant under a new session name, `unload`, close.
///
/// Variant `k` is its program's source plus a trailing `// tenant k`
/// comment: the comment changes the snapshot digest but not the program,
/// so the first load of each variant misses the server's snapshot
/// directory (cold build, then publish) and the second load hits it
/// (restore). The schedule is miss(0), then miss(k), hit(k-1) for
/// k = 1, 2, ...; each variant's snapshot is deleted after its hit, so
/// the directory stays small.
#[derive(Default)]
pub struct Tenants {
    pub cold: Samples,
    pub restore: Samples,
    pub loads: u64,
    pub tally: Tally,
    /// The variant the next call starts with.
    next_variant: usize,
}

pub struct TenantPlan<'a> {
    pub program: &'a TenantProgram,
    /// Where the server keeps its snapshot cache.
    pub snapshot_dir: PathBuf,
    /// Where variant sources are written.
    pub variant_dir: PathBuf,
}

pub fn tenants(
    ctx: &Ctx,
    addr: &str,
    plan: &TenantPlan,
    budget: &Budget,
    parent: u64,
    out: &mut Tenants,
) -> io::Result<()> {
    std::fs::create_dir_all(&plan.variant_dir)?;
    let start = Instant::now();
    let restores_before = out.restore.len();
    loop {
        let k = out.next_variant;
        run_tenant(ctx, addr, plan, k, true, out, parent)?;
        if k > 0 {
            run_tenant(ctx, addr, plan, k - 1, false, out, parent)?;
        }
        out.next_variant += 1;
        if budget.done(start, out.restore.len() - restores_before) {
            break;
        }
    }
    Ok(())
}

/// Removes the files of the last variant, which was only ever missed.
pub fn finish_tenants(plan: &TenantPlan, out: &Tenants) {
    if let Some(k) = out.next_variant.checked_sub(1) {
        std::fs::remove_file(snapshot_path(plan, k)).ok();
        std::fs::remove_file(variant_path(plan, k)).ok();
    }
}

fn variant_src(program: &TenantProgram, k: usize) -> String {
    format!("{}\n// tenant {k}\n", program.src)
}

fn variant_path(plan: &TenantPlan, k: usize) -> PathBuf {
    plan.variant_dir.join(format!("{}-{k}.minic", plan.program.label))
}

fn snapshot_path(plan: &TenantPlan, k: usize) -> PathBuf {
    let program = plan.program;
    let digest = snapshot::digest(&variant_src(program, k), &program.input, &OptConfig::default());
    plan.snapshot_dir.join(format!("{digest:016x}.dsnap"))
}

fn run_tenant(
    ctx: &Ctx,
    addr: &str,
    plan: &TenantPlan,
    k: usize,
    cold: bool,
    out: &mut Tenants,
    parent: u64,
) -> io::Result<()> {
    let program = plan.program;
    let path = variant_path(plan, k);
    let snap = snapshot_path(plan, k);
    if cold {
        std::fs::write(&path, variant_src(program, k))?;
    }
    // The schedule decides hit or miss; the snapshot directory must agree.
    if snap.exists() == cold {
        out.tally.fail(format!(
            "variant {k} of {}: snapshot {} before a {} load",
            program.label,
            if cold { "present" } else { "missing" },
            if cold { "cold" } else { "restore" },
        ));
    }
    let name = format!("side{}", out.loads);
    let t0 = Instant::now();
    let mut conn = Conn::dial(addr)?;
    let dialed = Instant::now();
    ctx.spans.record("client.connect", parent, 0, t0, dialed);
    let hello = conn.hello()?;
    ctx.spans.record("client.hello", parent, 0, dialed, dialed + hello);
    let id = conn.fresh_id();
    let request = Request::load(id, &name, &path.display().to_string(), &program.input, None);
    out.tally.attempted += 1;
    out.loads += 1;
    let span = if cold { "client.load_cold" } else { "client.load_restore" };
    let (response, took) = conn.traced(&ctx.spans, span, parent, &request)?;
    match &response.body {
        ResponseBody::Loaded { session, algo, resident_bytes }
            if *session == name && algo == "opt" && *resident_bytes > 0 =>
        {
            if cold {
                out.cold.push(took);
            } else {
                out.restore.push(took);
            }
        }
        other => {
            out.tally.fail(format!("load of `{name}` answered {other:?}"));
            return Ok(());
        }
    }
    if cold && !snap.exists() {
        out.tally.fail(format!("cold load of `{name}` published no snapshot at {}", snap.display()));
    }
    let id = conn.fresh_id();
    match conn.call(&Request::unload(id, &name))?.0.body {
        ResponseBody::Unloaded { .. } => {}
        other => out.tally.fail(format!("unload of `{name}` answered {other:?}")),
    }
    if !cold {
        std::fs::remove_file(&snap)?;
        std::fs::remove_file(&path)?;
    }
    Ok(())
}
