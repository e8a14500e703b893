//! The two workloads.
//!
//! Each starts its own server and runs a main phase that stresses the
//! layers the workload exists for, interleaved in rounds with three short
//! side phases, so every run reports every end-to-end metric on the
//! workload's own programs: fresh-connection one-shots, slices on a paged
//! session, and session loads (snapshot-directory miss, then hit).

use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use dynslice::protocol::{Request, ResponseBody};
use dynslice::{Criterion, RunReport};

use crate::common::{
    corrupt_first, on_session, remove_dir, Answered, Ctx, Program, Query, Report, Tally, MIN_P50,
    MIN_P90,
};
use crate::layers::{self, LayerInput};
use crate::phases::{self, Budget, Cursors, Oneshot, Stream, TenantPlan, TenantProgram, Tenants};
use crate::server::{HostCpu, HostProbe, Server};
use crate::stats::{median, Samples};
use crate::wire::Conn;

/// The sessionless launch trace every server starts with; the workloads
/// only address named sessions.
const LAUNCH: &str = "fn main() { print 1; }\n";

/// Suite scale of every program (the default of the paper-figure benches).
const SCALE: f64 = 0.3;

/// Concurrent clients of the deep-slice main phase.
const DEEP_CLIENTS: usize = 2;

pub const NAMES: [&str; 2] = ["hot-cache", "deep-slice"];

#[derive(Clone, Copy, PartialEq, Eq)]
enum Kind {
    HotCache,
    DeepSlice,
}

impl Kind {
    fn parse(name: &str) -> io::Result<Kind> {
        match name {
            "hot-cache" => Ok(Kind::HotCache),
            "deep-slice" => Ok(Kind::DeepSlice),
            other => Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("unknown workload `{other}` (expected one of {NAMES:?})"),
            )),
        }
    }

    /// Shares of the timed window: main, one-shot, paged, side loads.
    fn shares(self) -> [f64; 4] {
        match self {
            Kind::HotCache => [0.65, 0.05, 0.12, 0.18],
            Kind::DeepSlice => [0.5, 0.08, 0.25, 0.17],
        }
    }

    /// Concurrent clients of the main phase.
    fn clients(self) -> usize {
        match self {
            Kind::HotCache => 1,
            Kind::DeepSlice => DEEP_CLIENTS,
        }
    }

    /// Expected cache flag of every slice reply outside the paged phase.
    fn cached(self) -> bool {
        self == Kind::HotCache
    }
}

/// What a workload's set-up hands to its timed phases.
struct Setup {
    dir: PathBuf,
    programs: Vec<Program>,
    /// Per program, the criteria the workload slices it on.
    criteria: Vec<Vec<Criterion>>,
    /// Index into `programs` of the program served as a paged session.
    paged_program: usize,
    /// Main-phase slices.
    main: Vec<Query>,
    /// Slices of the one-shot phase, in an order the seed does not
    /// decide, so that a run's one-shots ask the same mix of criteria
    /// whatever its seed.
    oneshot: Vec<Query>,
    /// Slices on the paged session, likewise in a fixed order.
    paged: Vec<Query>,
    /// The program side tenants load variants of.
    tenant: TenantProgram,
    /// Checks made while warming up.
    tally: Tally,
}

/// What the timed phases measured.
struct Outcome {
    main: Stream,
    oneshot: Oneshot,
    paged: Stream,
    loads: Tenants,
    cpu_main_ms: f64,
    rss_mb: f64,
    steal_pct: f64,
    /// Checks between phases.
    tally: Tally,
}

impl Outcome {
    /// Cache hits the harness saw in replies.
    fn cached_replies(&self, kind: Kind) -> u64 {
        let oneshots = if kind.cached() { self.oneshot.total.len() as u64 } else { 0 };
        self.main.cached + oneshots + self.paged.cached
    }

    fn main_ops(&self) -> u64 {
        self.main.latency.len() as u64
    }
}

pub fn run(ctx: &Ctx, workload: &str, report: &mut Report) -> io::Result<()> {
    let kind = Kind::parse(workload)?;
    let (server, s) = repeated_setup(ctx, kind, report)?;
    if ctx.tracing() {
        idle_window(&server, report);
        open_hellos(ctx, &server, report)?;
    }
    let probe = HostProbe::new();
    let before = probe.ms();
    let out = timed(ctx, kind, &server, &s)?;
    report.detail("host.probe_ms", (before + probe.ms()) / 2.0);
    drop(probe);
    let server_report = server.shutdown()?;
    out.report(kind, report)?;
    if let Some(server_report) = server_report {
        traced(ctx, kind, &s, &out, &server_report, report)?;
    }
    remove_dir(&s.dir);
    Ok(())
}

/// Set-up, several times; the median is `setup_s`. Only the last server
/// is kept.
fn repeated_setup(ctx: &Ctx, kind: Kind, report: &mut Report) -> io::Result<(Server, Setup)> {
    // Deep-slice set-up takes seconds and repeats well; hot-cache set-up
    // takes a tenth of a second, so it takes the median of more.
    let reps = match (ctx.tiny, kind) {
        (true, _) => 1,
        (false, Kind::DeepSlice) => 3,
        (false, Kind::HotCache) => 9,
    };
    let mut times = Vec::new();
    let mut kept: Option<(Server, Setup)> = None;
    for rep in 0..reps {
        if let Some((server, old)) = kept.take() {
            server.shutdown()?;
            remove_dir(&old.dir);
        }
        let t0 = Instant::now();
        kept = Some(setup(ctx, kind, rep, ctx.tracing())?);
        times.push(t0.elapsed().as_secs_f64());
    }
    let (server, s) = kept.expect("at least one set-up");
    report.set("setup_s", median(&times), "s");
    report.absorb(&s.tally);
    Ok((server, s))
}

impl Outcome {
    /// End-to-end metrics, the detail line, and every phase's tally.
    fn report(&self, kind: Kind, report: &mut Report) -> io::Result<()> {
        let e2e = |r: Result<f64, String>, what: &str| {
            r.map_err(|e| io::Error::other(format!("{}: {what}: {e}", NAMES[kind as usize])))
        };
        let slices = &self.main.latency;
        let loads = &self.loads;
        report.set("slice_p50_ms", e2e(slices.p50(), "slice p50")?, "ms");
        report.set("server.slice_p90_ms", e2e(slices.p90(), "slice p90")?, "ms");
        report.set("oneshot_p50_ms", e2e(self.oneshot.total.p50(), "one-shot p50")?, "ms");
        report.set("paged_slice_p50_ms", e2e(self.paged.latency.p50(), "paged p50")?, "ms");
        report.set("load_cold_p50_ms", e2e(loads.cold.p50(), "cold load p50")?, "ms");
        report.set("load_restore_p50_ms", e2e(loads.restore.p50(), "restore load p50")?, "ms");
        report.set("server.cpu_ms_per_op", self.cpu_main_ms / self.main_ops().max(1) as f64, "ms");
        report.set("server_peak_rss_mb", self.rss_mb, "MB");
        report.set("host.steal_pct", self.steal_pct, "%");

        // Printed beside the result: sample counts, and the tails and
        // rates that do not repeat well enough on a small shared host to
        // be gated.
        report.detail("main_ops", self.main_ops() as f64);
        report.detail("slice_p99_ms", slices.pct(99).unwrap_or(f64::NAN));
        report.detail("oneshot_n", self.oneshot.total.len() as f64);
        report.detail("paged_n", self.paged.latency.len() as f64);
        report.detail("paged_p90_ms", self.paged.latency.p90().unwrap_or(f64::NAN));
        report.detail("cold_n", loads.cold.len() as f64);
        report.detail("restore_n", loads.restore.len() as f64);
        report.detail("load_cold_p90_ms", loads.cold.p90().unwrap_or(f64::NAN));
        report.detail("load_restore_p90_ms", loads.restore.p90().unwrap_or(f64::NAN));
        report.detail("main_qps", self.main_qps());

        for tally in [&self.main.tally, &self.oneshot.tally, &self.paged.tally, &self.loads.tally, &self.tally] {
            report.absorb(tally);
        }
        Ok(())
    }

    fn main_qps(&self) -> f64 {
        self.main_ops() as f64 / self.main.elapsed.as_secs_f64()
    }
}

/// Per-layer metrics: the traced server's report reconciled with the
/// schedule, wire-side splits, in-process layer timings, and the tracing
/// overhead.
fn traced(
    ctx: &Ctx,
    kind: Kind,
    s: &Setup,
    out: &Outcome,
    server_report: &RunReport,
    report: &mut Report,
) -> io::Result<()> {
    Expected::of(kind, out).reconcile(server_report, out.cached_replies(kind), report);
    layers::server_metrics(server_report, report);
    // Service times are whole microseconds; a hot-cache hit takes one or
    // two, so the plain median would read the same on every run.
    report.set("server.service_p50_us", out.main.service.grouped_median(1e-3) * 1e3, "us");
    report.set("server.overhead_p50_us", out.main.overhead.median() * 1e3, "us");
    // The dial completes in the kernel's backlog; the wait for the
    // acceptor shows up in the first reply. Subtract what a hello and a
    // slice cost on an open connection.
    let hello = report.get("server.hello_p50_ms").unwrap_or(f64::NAN);
    let accept = out.oneshot.total.median() - hello - out.oneshot.slice.median();
    report.set("server.accept_wait_p50_ms", accept, "ms");
    report.set("server.qps", out.main_qps(), "1/s");
    report.set("sessions.cache_hit_ratio", out.main.cached as f64 / out.main_ops() as f64, "1");
    let input = LayerInput {
        programs: &s.programs,
        criteria: &s.criteria,
        paged_program: s.paged_program,
        lines: &out.main.lines,
        dir: &s.dir,
    };
    layers::measure(ctx, &input, report)?;
    trace_overhead(ctx, kind, out.main.latency.median(), report)
}

/// The timed window is split into rounds; each round runs every phase
/// for its share of the round. A host slowdown of a few seconds then
/// lands on all phases alike instead of on whichever phase it overlaps.
fn rounds(ctx: &Ctx) -> usize {
    if ctx.tiny {
        1
    } else {
        8
    }
}

fn tenant_plan(s: &Setup) -> TenantPlan<'_> {
    TenantPlan {
        program: &s.tenant,
        snapshot_dir: s.dir.join("snap"),
        variant_dir: s.dir.join("variants"),
    }
}

/// Main phase, one-shots, paged slices and side loads, round after round.
fn timed(ctx: &Ctx, kind: Kind, server: &Server, s: &Setup) -> io::Result<Outcome> {
    let shares = kind.shares();
    let rounds = rounds(ctx);
    let slot = |share: f64| Duration::from_secs_f64(ctx.seconds * share / rounds as f64);
    // Minimum sample counts are topped up in the last round.
    let budget = |round: usize, share: f64, want: usize, have: usize| Budget {
        window: slot(share),
        min_ops: if round + 1 == rounds { want.saturating_sub(have) } else { 0 },
    };
    let root = ctx.spans.open();
    let host0 = HostCpu::read();
    let mut out = Outcome {
        main: Stream::default(),
        oneshot: Oneshot::default(),
        paged: Stream::default(),
        loads: Tenants::default(),
        cpu_main_ms: 0.0,
        rss_mb: 0.0,
        steal_pct: 0.0,
        tally: Tally::default(),
    };
    let plan = tenant_plan(s);
    let addr = &server.addr;
    let mut main_cursors = Cursors::new(kind.clients(), s.main.len());
    let mut paged_cursors = Cursors::new(1, s.paged.len());
    let mut oneshot_cursor = 0;
    for round in 0..rounds {
        let cpu0 = server.cpu_ms();
        let b = budget(round, shares[0], MIN_P90, out.main.latency.len());
        let main = phases::stream(ctx, addr, &mut main_cursors, &s.main, Some(kind.cached()), &b, root.0)?;
        out.main.merge(main);
        out.cpu_main_ms += server.cpu_ms() - cpu0;

        let b = budget(round, shares[1], MIN_P50, out.oneshot.total.len());
        let cached = Some(kind.cached());
        out.oneshot.merge(phases::oneshot(ctx, addr, &mut oneshot_cursor, &s.oneshot, cached, &b, root.0)?);

        // The hot-cache paged session cycles through more criteria than
        // its result cache holds, so its replies are traversals, not hits.
        let b = budget(round, shares[2], MIN_P50, out.paged.latency.len());
        out.paged.merge(phases::stream(ctx, addr, &mut paged_cursors, &s.paged, None, &b, root.0)?);

        let b = budget(round, shares[3], MIN_P50, out.loads.restore.len());
        phases::tenants(ctx, addr, &plan, &b, root.0, &mut out.loads)?;
    }
    phases::finish_tenants(&plan, &out.loads);
    out.rss_mb = server.peak_rss_mb();
    out.steal_pct = HostCpu::read().steal_pct_since(&host0);
    ctx.spans.close(root, "workload", 0);
    Ok(out)
}

/// Builds the programs and the oracle, starts the server, and brings its
/// sessions online. Everything here counts towards `setup_s`.
fn setup(ctx: &Ctx, kind: Kind, rep: usize, metrics: bool) -> io::Result<(Server, Setup)> {
    let dir = ctx.dir.join(format!("setup{rep}"));
    std::fs::create_dir_all(&dir)?;
    let launch = dir.join("launch.minic");
    std::fs::write(&launch, LAUNCH)?;
    let snap = dir.join("snap");
    let mut rng = ctx.rng(1);
    let mut tally = Tally::default();
    let mut args: Vec<String> =
        ["--workers", "2", "--snapshot-dir"].iter().map(|s| s.to_string()).collect();
    args.push(snap.display().to_string());

    let mut s = match kind {
        Kind::HotCache => {
            let gzip = Program::prepare(ctx, &dir, "164.gzip", "gzip", SCALE)?;
            let mut crit = gzip.cells(32);
            rng.shuffle(&mut crit);
            let mut answered = gzip.answered(crit.clone())?;
            corrupt_first(ctx, &mut answered);
            // More distinct criteria than the 64-entry result cache holds,
            // cycled in order: every paged reply misses the cache.
            let paged = on_session("gzip_paged", &gzip.answered(gzip.cells(96))?);
            args.extend(["--cache-capacity".into(), "64".into(), "--preload".into(), gzip.preload()]);
            let main = on_session("gzip", &answered);
            Setup {
                dir,
                criteria: vec![crit],
                paged_program: 0,
                oneshot: main.clone(),
                main,
                paged,
                tenant: TenantProgram::of(&gzip),
                programs: vec![gzip],
                tally: Tally::default(),
            }
        }
        Kind::DeepSlice => {
            let twolf = Program::prepare(ctx, &dir, "300.twolf", "twolf", SCALE)?;
            let go = Program::prepare(ctx, &dir, "099.go", "go", SCALE)?;
            let mut twolf_answered = deep_criteria(&twolf)?;
            let go_answered = deep_criteria(&go)?;
            corrupt_first(ctx, &mut twolf_answered);
            // One-shots take a few tens of samples a run: five criteria of
            // each program, so that every one is asked several times.
            let mut oneshot = on_session("twolf", &twolf_answered[..5].to_vec());
            oneshot.extend(on_session("go", &go_answered[..5].to_vec()));
            let mut main = on_session("twolf", &twolf_answered);
            main.extend(on_session("go", &go_answered));
            rng.shuffle(&mut main);
            args.extend(["--no-cache".into(), "--preload".into()]);
            args.push(format!("{},{}", twolf.preload(), go.preload()));
            let criteria = [&twolf_answered, &go_answered]
                .map(|a| a.iter().map(|(c, _)| *c).collect())
                .to_vec();
            Setup {
                dir,
                criteria,
                paged_program: 0,
                main,
                oneshot,
                paged: on_session("twolf_paged", &twolf_answered),
                tenant: TenantProgram::of(&go),
                programs: vec![twolf, go],
                tally: Tally::default(),
            }
        }
    };
    let server = Server::spawn(&ctx.server_bin, &s.dir, &launch, &args, metrics)?;
    load_paged(&server, &s.programs[s.paged_program])?;
    if kind == Kind::HotCache {
        // One pass over the main queries fills the result cache.
        let mut conn = Conn::dial(&server.addr)?;
        conn.hello()?;
        for q in &s.main {
            let id = conn.fresh_id();
            let (response, _) = conn.call(&Request::slice_in(id, &q.session, &q.criterion))?;
            tally.attempted += 1;
            if let Err(problem) = crate::common::verify(&response, q, Some(false)) {
                tally.fail(problem);
            }
        }
    }
    s.tally = tally;
    Ok((server, s))
}

/// 25 criteria of one cost class, with their answers: the first
/// candidates, in cell order, whose slices are at least half as long as
/// the longest. Deep-slice medians then sit inside one class instead of
/// stepping between classes, and the seed changes only the order they
/// are asked in.
fn deep_criteria(p: &Program) -> io::Result<Answered> {
    let mut answered = p.answered(p.cells(32))?;
    let longest = answered.iter().map(|(_, a)| a.len()).max().unwrap_or(0);
    answered.retain(|(_, a)| 2 * a.len() >= longest);
    answered.truncate(25);
    Ok(answered)
}
/// Blocking wire `load` of `<label>_paged` as a paged session.
fn load_paged(server: &Server, p: &Program) -> io::Result<()> {
    let mut conn = Conn::dial(&server.addr)?;
    conn.hello()?;
    let name = format!("{}_paged", p.label);
    let id = conn.fresh_id();
    let request =
        Request::load(id, &name, &p.path.display().to_string(), &p.input, Some("paged"));
    match conn.call(&request)?.0.body {
        ResponseBody::Loaded { ref session, ref algo, .. } if *session == name && algo == "paged" => {
            Ok(())
        }
        other => Err(io::Error::other(format!("paged load of `{name}` answered {other:?}"))),
    }
}

/// Server CPU over one second of idleness, as a share of one CPU.
fn idle_window(server: &Server, report: &mut Report) {
    let ns0 = server.thread_cpu_ns();
    let t0 = Instant::now();
    std::thread::sleep(Duration::from_secs(1));
    let busy = server.thread_cpu_ns().saturating_sub(ns0) as f64;
    report.set("server.idle_cpu_pct", busy / t0.elapsed().as_nanos() as f64 * 100.0, "%");
}

/// `hello` round trips on an already open connection.
fn open_hellos(ctx: &Ctx, server: &Server, report: &mut Report) -> io::Result<()> {
    let mut conn = Conn::dial(&server.addr)?;
    conn.hello()?;
    let mut hellos = Samples::default();
    for _ in 0..200 {
        let t0 = Instant::now();
        let took = conn.hello()?;
        ctx.spans.record("client.hello", 0, 0, t0, t0 + took);
        hellos.push(took);
    }
    report.set("server.hello_p50_ms", hellos.p50().unwrap_or(f64::NAN), "ms");
    Ok(())
}

/// Server-side counts the schedule implies, checked against the traced
/// server's `--metrics-json` report.
struct Expected {
    loaded: u64,
    evicted: u64,
    unloaded: u64,
    snapshot_hit: u64,
    snapshot_miss: u64,
}

impl Expected {
    /// Preloads miss the snapshot directory and publish; the paged
    /// session's load then hits what its program's preload wrote. Every
    /// side load is unloaded again.
    fn of(kind: Kind, out: &Outcome) -> Expected {
        let (cold, restore) = (out.loads.cold.len() as u64, out.loads.restore.len() as u64);
        let preloads = if kind == Kind::HotCache { 1 } else { 2 };
        Expected {
            loaded: preloads + 1 + cold + restore,
            evicted: 0,
            unloaded: cold + restore,
            snapshot_hit: 1 + restore,
            snapshot_miss: preloads + cold,
        }
    }

    fn reconcile(&self, r: &RunReport, harness_hits: u64, report: &mut Report) {
        let c = |k: &str| r.counters.get(k).copied().unwrap_or(0);
        let checks = [
            ("server.sessions_loaded", self.loaded),
            ("server.sessions_evicted", self.evicted),
            ("server.sessions_unloaded", self.unloaded),
            ("snapshot.hit", self.snapshot_hit),
            ("snapshot.miss", self.snapshot_miss),
            ("server.cache_hits", harness_hits),
            ("server.failed", 0),
            ("server.timeouts", 0),
            ("server.panics", 0),
        ];
        for (key, want) in checks {
            report.attempted += 1;
            if c(key) != want {
                report.fail(format!("server report {key} = {}, schedule implies {want}", c(key)));
            }
        }
    }
}

/// Tracing overhead: the main phase again on a fresh server without
/// `--metrics-json` and with harness spans off, compared by median.
fn trace_overhead(ctx: &Ctx, kind: Kind, traced_p50: f64, report: &mut Report) -> io::Result<()> {
    let plain = ctx.untraced();
    let (server, s) = setup(&plain, kind, 99, false)?;
    let budget = Budget {
        window: Duration::from_secs_f64(ctx.seconds * kind.shares()[0] / rounds(ctx) as f64),
        min_ops: MIN_P50,
    };
    let mut cursors = Cursors::new(kind.clients(), s.main.len());
    let st = phases::stream(&plain, &server.addr, &mut cursors, &s.main, Some(kind.cached()), &budget, 0)?;
    server.shutdown()?;
    remove_dir(&s.dir);
    report.absorb(&st.tally);
    let p50 = st.latency.p50().map_err(io::Error::other)?;
    report.set("obs.trace_overhead_pct", (traced_p50 / p50 - 1.0) * 100.0, "%");
    Ok(())
}
