//! Multi-trace session management for the slice service.
//!
//! PR 4's server amortized **one** build across an interactive session;
//! this module amortizes the server itself across many programs and
//! traces. A [`SessionManager`] owns N named sessions, each a fully
//! built backend ([`OwnedSlicer`]) plus its own per-criterion LRU result
//! cache and usage counters. Sessions are built on demand by `load`
//! requests (on the worker pool — construction is ordinary `Send` work),
//! addressed by the `session` field on `slice` requests, and dropped by
//! `unload`.
//!
//! Memory is the scarce resource the paper's LP/OPT trade-off is about,
//! so residency is budgeted, not unbounded: every session is weighed by
//! [`crate::AnySlicer::resident_bytes`], and admitting a new one first
//! evicts **idle** sessions in least-recently-used order until the
//! budget (and the session-count cap) holds. Weights are **live**, not
//! build-time snapshots: paged backends grow as queries page label
//! blocks into their cache, so every admission pass re-weighs the
//! resident set first, and [`SessionManager::enforce_budget`] (run after
//! each session slice) evicts idle sessions whose refreshed total busts
//! the budget. If eviction cannot make
//! room — every resident session has queries in flight — the load is
//! rejected with a typed error ([`crate::protocol::ErrorKind::OverBudget`])
//! rather than overcommitting. Busy sessions are never evicted: a lease
//! ([`SessionLease`]) pins its session for the duration of a query.
//!
//! Everything a session did is preserved for the final run report:
//! live and retired (evicted/unloaded/replaced) sessions alike produce a
//! [`SessionReport`] under their name, so a run that loaded, queried,
//! and evicted a trace still accounts for it. A server may retire
//! sessions for as long as it runs, so only the newest
//! [`RETIRED_KEPT`] retired sessions report one by one; older ones are
//! summed into one report under [`RETIRED_OLDER`].

use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;

use dynslice_graph::snapshot::{self, Snapshot, SnapshotError};
use dynslice_graph::{build_compact, CompactGraph};
use dynslice_obs::{phases, Registry, SessionReport};
use dynslice_slicing::{Criterion, Slicer as _};

use crate::criteria::parse_input_tape;
use crate::protocol::SessionInfo;
use crate::server::ServerCounters;
use crate::{Algo, AnySlicer, Session, SlicerConfig, Trace};

/// Least-recently-used slice cache keyed by criterion (one per
/// [`SessionEntry`], the server's default trace included).
pub(crate) struct LruCache {
    capacity: usize,
    seq: u64,
    map: HashMap<Criterion, (u64, Arc<Vec<u32>>)>,
    order: BTreeMap<u64, Criterion>,
}

impl LruCache {
    pub(crate) fn new(capacity: usize) -> Self {
        LruCache { capacity, seq: 0, map: HashMap::new(), order: BTreeMap::new() }
    }

    pub(crate) fn get(&mut self, criterion: &Criterion) -> Option<Arc<Vec<u32>>> {
        let (seq, stmts) = self.map.get_mut(criterion)?;
        let stale = *seq;
        self.seq += 1;
        *seq = self.seq;
        let stmts = Arc::clone(stmts);
        self.order.remove(&stale);
        self.order.insert(self.seq, *criterion);
        Some(stmts)
    }

    pub(crate) fn insert(&mut self, criterion: Criterion, stmts: Arc<Vec<u32>>) {
        if self.capacity == 0 {
            return;
        }
        if let Some((stale, _)) = self.map.remove(&criterion) {
            self.order.remove(&stale);
        }
        while self.map.len() >= self.capacity {
            let Some((_, evicted)) = self.order.pop_first() else { break };
            self.map.remove(&evicted);
        }
        self.seq += 1;
        self.map.insert(criterion, (self.seq, stmts));
        self.order.insert(self.seq, criterion);
    }
}

/// A backend that owns everything it slices, so it can be stored, sent
/// between threads, and dropped as a unit — which is exactly what a
/// session table needs and what the borrow-based [`Session::build_slicer`]
/// API alone cannot provide. Backends that borrow the compiled program
/// (FP, LP) keep the [`Session`] in the same value; OPT, paged and
/// forward own what they read (`AnySlicer::into_owned`), so they hold
/// none, and a snapshot restore never compiles one.
///
/// # Safety invariants
///
/// When `session` is `Some`, `slicer` borrows from `*session` with its
/// lifetime erased to `'static`. This is sound because:
/// * the `Session` is boxed, so its address is stable for the lifetime
///   of `OwnedSlicer` no matter how the outer value moves;
/// * `session` is never mutated or replaced after construction;
/// * field order makes `slicer` drop before `session`, so the erased
///   borrow never dangles;
/// * the erased lifetime never escapes: [`Self::slicer`] re-shrinks it
///   to the borrow of `self` (covariance of `AnySlicer<'s>` in `'s`).
///
/// When `session` is `None`, `slicer` is one of the variants whose types
/// carry no lifetime, so it borrows nothing.
pub struct OwnedSlicer {
    slicer: AnySlicer<'static>,
    #[allow(dead_code)] // owned purely to outlive `slicer`'s borrows
    session: Option<Box<Session>>,
}

// `AnySlicer` is `Sync` by the `Slicer` trait bound; `Send` holds for
// every backend (audited in `dynslice-slicing`). The erased borrow points
// into the co-owned `Session`, so sending the pair together is safe.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<OwnedSlicer>();
};

impl OwnedSlicer {
    /// Compiles `src`, traces it on `input`, and builds the `algo`
    /// backend, bundling backend and compiled program into one owned
    /// value. Build phases are timed into `reg` like any other build.
    ///
    /// # Errors
    /// [`LoadError::Bad`] for compile errors, [`LoadError::Io`] for
    /// disk-backed build failures.
    pub fn build(
        src: &str,
        input: Vec<i64>,
        algo: Algo,
        config: &SlicerConfig,
        reg: &Registry,
    ) -> Result<Self, LoadError> {
        let session = Session::compile(src).map_err(|d| LoadError::Bad(d.to_string()))?;
        let trace = session.run(input);
        Self::from_trace(session, &trace, algo, config, reg).map_err(LoadError::Io)
    }

    /// Builds the `algo` backend from a program compiled and traced
    /// elsewhere (how `dynslice serve` wraps its launch trace), taking
    /// ownership of the compiled program. The program is kept only if the
    /// backend borrows it (FP, LP).
    ///
    /// # Errors
    /// Disk-backed build failures.
    pub fn from_trace(
        session: Session,
        trace: &Trace,
        algo: Algo,
        config: &SlicerConfig,
        reg: &Registry,
    ) -> io::Result<Self> {
        let session = Box::new(session);
        // SAFETY: see the type-level invariants — the box gives `session`
        // a stable address, and `slicer` (declared first) drops before it.
        let forever: &'static Session = unsafe { &*(session.as_ref() as *const Session) };
        Ok(match forever.build_slicer(algo, trace, config, reg)?.into_owned() {
            Ok(slicer) => OwnedSlicer { slicer, session: None },
            Err(slicer) => OwnedSlicer { slicer, session: Some(session) },
        })
    }

    /// Restores a backend from a decoded [`Snapshot`]: the restored
    /// [`CompactGraph`] becomes the backend directly, so the load costs
    /// the snapshot's read, verification and decode, not a trace replay.
    /// The stored source is not recompiled: OPT and paged read only the
    /// graph.
    ///
    /// # Errors
    /// [`LoadError::Bad`] if `algo` is not graph-backed (only OPT and the
    /// paged hybrid restore from a compacted graph); [`LoadError::Io`] if
    /// the paged spill fails.
    pub fn from_snapshot(
        snap: Snapshot,
        algo: Algo,
        config: &SlicerConfig,
        reg: &Registry,
    ) -> Result<Self, LoadError> {
        let slicer = graph_backend(snap.graph, algo, config, reg)?;
        Ok(OwnedSlicer { slicer, session: None })
    }

    /// [`Self::build`] for graph-backed algorithms, additionally encoding
    /// the built graph as a snapshot (returned as raw bytes so the caller
    /// decides where — if anywhere — to persist it). The backend is
    /// constructed from the same graph the snapshot captures, so a later
    /// [`Self::from_snapshot`] restore is bit-identical.
    ///
    /// # Errors
    /// As [`Self::build`], plus [`LoadError::Bad`] for non-graph-backed
    /// algorithms.
    pub fn build_with_snapshot(
        src: &str,
        input: Vec<i64>,
        algo: Algo,
        config: &SlicerConfig,
        reg: &Registry,
    ) -> Result<(Self, Vec<u8>), LoadError> {
        let session = Session::compile(src).map_err(|d| LoadError::Bad(d.to_string()))?;
        let trace = session.run(input.clone());
        let graph = reg.time_phase(phases::GRAPH_BUILD, || {
            build_compact(&session.program, &session.analysis, &trace.events, &config.opt)
        });
        // The graph is all a graph-backed backend reads.
        drop((trace, session));
        let snap =
            Snapshot { source: src.to_string(), input, config: config.opt.clone(), graph };
        let bytes = reg.time_phase(phases::SNAPSHOT_IO, || snapshot::encode(&snap));
        let slicer = graph_backend(snap.graph, algo, config, reg)?;
        Ok((OwnedSlicer { slicer, session: None }, bytes))
    }

    /// The backend, with its lifetime tied back to `self`.
    pub fn slicer(&self) -> &AnySlicer<'_> {
        &self.slicer
    }

    /// Whether this value keeps a compiled program alive for its backend.
    #[cfg(test)]
    fn holds_session(&self) -> bool {
        self.session.is_some()
    }
}

/// [`crate::graph_slicer`] with its errors mapped to [`LoadError`]: a
/// non-graph-backed `algo` is the client's fault (`bad_request`), the
/// rest are spill I/O failures.
fn graph_backend(
    graph: CompactGraph,
    algo: Algo,
    config: &SlicerConfig,
    reg: &Registry,
) -> Result<AnySlicer<'static>, LoadError> {
    crate::graph_slicer(graph, algo, config, reg).map_err(|e| {
        if e.kind() == io::ErrorKind::InvalidInput {
            LoadError::Bad(e.to_string())
        } else {
            LoadError::Io(e)
        }
    })
}

/// Why a `load` failed.
#[derive(Debug)]
pub enum LoadError {
    /// The program could not be read or compiled — the client's fault
    /// (protocol `bad_request`).
    Bad(String),
    /// Admission was refused: the session alone exceeds the memory
    /// budget, or eviction could not make room (protocol `over_budget`).
    Rejected(String),
    /// A disk-backed build failed (protocol `io`).
    Io(io::Error),
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Bad(msg) | LoadError::Rejected(msg) => f.write_str(msg),
            LoadError::Io(e) => write!(f, "I/O error building session: {e}"),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Io(e) => Some(e),
            _ => None,
        }
    }
}

/// What a client asked `load` to build: the parsed, validated form of a
/// `load` request or a `--preload` entry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionSpec {
    /// The name future `slice` requests address the session by.
    pub name: String,
    /// MiniC source path. Ignored (and typically empty) when
    /// [`Self::snapshot`] is set — the snapshot carries its own source.
    pub program: PathBuf,
    /// Input tape for the traced run. Ignored when [`Self::snapshot`] is
    /// set — the snapshot carries the traced input.
    pub input: Vec<i64>,
    /// Backend override (`None` = the server's default algorithm).
    pub algo: Option<Algo>,
    /// Restore from this snapshot file instead of building from
    /// [`Self::program`]. Only graph-backed backends (OPT, paged) can
    /// load one.
    pub snapshot: Option<PathBuf>,
}

impl SessionSpec {
    /// Parses one `--preload` entry: `[name=]path[@i1;i2;...]` — an
    /// optional session name (defaults to the file stem), the program
    /// path, and an optional semicolon-separated input tape.
    ///
    /// # Errors
    /// Rejects empty names/paths and malformed input values.
    pub fn parse(entry: &str) -> Result<Self, String> {
        let (name, rest) = match entry.split_once('=') {
            Some((name, rest)) => (Some(name), rest),
            None => (None, entry),
        };
        let (path, input) = match rest.split_once('@') {
            Some((path, tape)) => (path, parse_input_tape(&tape.replace(';', ","))?),
            None => (rest, Vec::new()),
        };
        if path.is_empty() {
            return Err(format!("preload entry `{entry}` has no program path"));
        }
        let program = PathBuf::from(path);
        let name = match name {
            Some(n) => n.to_string(),
            None => program
                .file_stem()
                .and_then(|s| s.to_str())
                .map(str::to_string)
                .ok_or(format!("cannot derive a session name from `{path}`"))?,
        };
        if name.is_empty() {
            return Err(format!("preload entry `{entry}` has an empty session name"));
        }
        Ok(SessionSpec { name, program, input, algo: None, snapshot: None })
    }
}

/// One session: a built backend plus its result cache and usage
/// counters. Named sessions live in the [`SessionManager`]'s table; the
/// server's default trace is an entry held outside it
/// ([`SessionManager::default_entry`]).
pub struct SessionEntry {
    name: String,
    slicer: OwnedSlicer,
    /// Latest measured footprint; refreshed by [`Self::reweigh`], never
    /// trusted from admission time (paged backends grow after build).
    resident_bytes: AtomicU64,
    pub(crate) cache: Mutex<LruCache>,
    pub(crate) requests: AtomicU64,
    pub(crate) cache_hits: AtomicU64,
    pub(crate) cache_misses: AtomicU64,
    in_flight: AtomicU64,
    last_used: AtomicU64,
    /// Leases ever granted (one per slice query routed here).
    leases: AtomicU64,
    /// Most leases held at once — how contended the session has been.
    lease_peak: AtomicU64,
    /// Distinct connection ids that have leased this session (0 is the
    /// stdio stream), for per-connection accounting in the final report.
    conns: Mutex<BTreeSet<u64>>,
}

impl SessionEntry {
    fn new(name: String, slicer: OwnedSlicer, cache_capacity: usize) -> Self {
        SessionEntry {
            name,
            resident_bytes: AtomicU64::new(slicer.slicer().resident_bytes()),
            slicer,
            cache: Mutex::new(LruCache::new(cache_capacity)),
            requests: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            last_used: AtomicU64::new(0),
            leases: AtomicU64::new(0),
            lease_peak: AtomicU64::new(0),
            conns: Mutex::new(BTreeSet::new()),
        }
    }

    /// The session's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The backend answering this session's queries.
    pub fn slicer(&self) -> &AnySlicer<'_> {
        self.slicer.slicer()
    }

    /// The bytes the memory budget charges this session for, as of the
    /// last [`Self::reweigh`] (admission passes and post-slice budget
    /// enforcement refresh it — a paged backend's footprint grows as
    /// queries page blocks in, so a build-time snapshot goes stale).
    pub fn resident_bytes(&self) -> u64 {
        self.resident_bytes.load(Ordering::Relaxed)
    }

    /// Re-measures the backend's resident footprint and refreshes the
    /// weight the memory budget charges, returning the fresh value.
    pub fn reweigh(&self) -> u64 {
        let bytes = self.slicer.slicer().resident_bytes();
        self.resident_bytes.store(bytes, Ordering::Relaxed);
        bytes
    }

    /// Distinct connections that have leased this session so far.
    pub fn client_connections(&self) -> u64 {
        self.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).len() as u64
    }

    /// Most leases this session has held at once.
    pub fn lease_peak(&self) -> u64 {
        self.lease_peak.load(Ordering::Relaxed)
    }

    fn final_counters(&self, evicted: bool) -> FinalCounters {
        FinalCounters {
            requests: self.requests.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            leases: self.leases.load(Ordering::Relaxed),
            client_connections: self.client_connections(),
            resident_bytes: self.resident_bytes(),
            lease_peak: self.lease_peak(),
            evicted,
        }
    }
}

/// A session's counters when it retires, as plain numbers: a server that
/// keeps loading and unloading retires one session per unload or eviction
/// for as long as it runs, so each must stay a few words, not a report's
/// two string-keyed maps. [`FinalCounters::report`] expands it.
#[derive(Clone, Copy, Debug)]
struct FinalCounters {
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    leases: u64,
    client_connections: u64,
    resident_bytes: u64,
    lease_peak: u64,
    evicted: bool,
}

impl FinalCounters {
    fn report(&self) -> SessionReport {
        let mut report = SessionReport::default();
        report.counters.insert("requests".into(), self.requests);
        report.counters.insert("cache_hits".into(), self.cache_hits);
        report.counters.insert("cache_misses".into(), self.cache_misses);
        report.counters.insert("leases".into(), self.leases);
        report.counters.insert("client_connections".into(), self.client_connections);
        report.gauges.insert("resident_bytes".into(), self.resident_bytes as f64);
        report.gauges.insert("lease_peak".into(), self.lease_peak as f64);
        if self.evicted {
            report.gauges.insert("evicted".into(), 1.0);
        }
        report
    }
}

/// Pins a session while a query runs: eviction skips sessions with an
/// outstanding lease, so a backend is never torn down mid-slice.
pub struct SessionLease {
    entry: Arc<SessionEntry>,
}

impl std::ops::Deref for SessionLease {
    type Target = SessionEntry;

    fn deref(&self) -> &SessionEntry {
        &self.entry
    }
}

impl Drop for SessionLease {
    fn drop(&mut self) {
        self.entry.in_flight.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Holds the `end_load` obligation of an asynchronous build (see
/// [`SessionManager::load_guard`]): dropped without [`Self::disarm`], it
/// clears the name's pending-load registration — including when the drop
/// happens during a panic's unwind, which is exactly the path that used
/// to wedge the loading registry forever.
pub struct LoadGuard<'m> {
    manager: &'m SessionManager,
    name: String,
    armed: bool,
}

impl LoadGuard<'_> {
    /// Releases the obligation without clearing the registration: the
    /// successful [`SessionManager::load`] already removed it atomically
    /// with admission, and a racing re-registration must survive.
    pub fn disarm(mut self) {
        self.armed = false;
    }
}

impl Drop for LoadGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.manager.end_load(&self.name);
        }
    }
}

/// The sum of the retired sessions folded out of the per-session list:
/// counts add up, and the two high-water marks keep their maximum.
#[derive(Debug, Default)]
struct RetiredTotals {
    sessions: u64,
    evicted: u64,
    requests: u64,
    cache_hits: u64,
    cache_misses: u64,
    leases: u64,
    client_connections: u64,
    resident_bytes_max: u64,
    lease_peak: u64,
}

impl RetiredTotals {
    fn add(&mut self, c: &FinalCounters) {
        self.sessions += 1;
        self.evicted += u64::from(c.evicted);
        self.requests += c.requests;
        self.cache_hits += c.cache_hits;
        self.cache_misses += c.cache_misses;
        self.leases += c.leases;
        self.client_connections += c.client_connections;
        self.resident_bytes_max = self.resident_bytes_max.max(c.resident_bytes);
        self.lease_peak = self.lease_peak.max(c.lease_peak);
    }

    fn report(&self) -> SessionReport {
        let mut report = SessionReport::default();
        report.counters.insert("sessions".into(), self.sessions);
        report.counters.insert("evicted".into(), self.evicted);
        report.counters.insert("requests".into(), self.requests);
        report.counters.insert("cache_hits".into(), self.cache_hits);
        report.counters.insert("cache_misses".into(), self.cache_misses);
        report.counters.insert("leases".into(), self.leases);
        report.counters.insert("client_connections".into(), self.client_connections);
        report.gauges.insert("resident_bytes_max".into(), self.resident_bytes_max as f64);
        report.gauges.insert("lease_peak".into(), self.lease_peak as f64);
        report
    }
}

/// How many of the most recently retired sessions keep a report of their
/// own: a fixed bound, so a server that loads and unloads for as long as
/// it runs holds a fixed amount of report state.
pub const RETIRED_KEPT: usize = 256;

/// The final-report key of the sessions retired before the newest
/// [`RETIRED_KEPT`], summed into one report (suffixed like any reused
/// name if a session took the key first).
pub const RETIRED_OLDER: &str = "#retired";

/// Retired sessions keep reporting: the newest [`RETIRED_KEPT`] by their
/// final counters, keyed by name (suffixed `#2`, `#3`, … when the name
/// was reused), and the rest summed in `retired_older`.
struct ManagerInner {
    sessions: BTreeMap<String, Arc<SessionEntry>>,
    /// Names with an asynchronous `load` still building, mapped to the
    /// backend the build will produce (for `list`).
    loading: BTreeMap<String, Algo>,
    /// The newest retired sessions, oldest first.
    retired: VecDeque<(String, FinalCounters)>,
    retired_older: RetiredTotals,
    lru_seq: u64,
    /// Per-session caught-panic counts. A session reaching
    /// [`QUARANTINE_PANICS`] is evicted into `quarantined`; the count is
    /// cleared when the name is re-`load`ed or unloaded.
    panics: BTreeMap<String, u32>,
    /// Quarantined sessions: evicted for repeated panics and refusing
    /// queries until re-`load`ed. Maps the name to the backend tag and
    /// request count it had when quarantined (for `list`).
    quarantined: BTreeMap<String, (String, u64)>,
}

impl ManagerInner {
    /// Records a retired session's final counters, folding the oldest
    /// kept one into the totals once [`RETIRED_KEPT`] are kept.
    fn retire(&mut self, name: String, counters: FinalCounters) {
        if self.retired.len() == RETIRED_KEPT {
            if let Some((_, oldest)) = self.retired.pop_front() {
                self.retired_older.add(&oldest);
            }
        }
        self.retired.push_back((name, counters));
    }
}

/// Caught panics in one session's slicer before it is quarantined.
pub const QUARANTINE_PANICS: u32 = 2;

/// The outcome of [`SessionManager::unload`].
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Unload {
    /// The session was resident and is now dropped.
    Unloaded,
    /// An asynchronous `load` for the name is still building; the unload
    /// is refused (protocol `loading`) so the build's completion cannot
    /// silently resurrect a name the client just tore down.
    Loading,
    /// No session by that name (protocol `unknown_session`).
    Missing,
}

/// Owns the server's named sessions and enforces the residency policy.
pub struct SessionManager {
    default_algo: Algo,
    config: SlicerConfig,
    max_sessions: usize,
    /// Total `resident_bytes` budget across sessions; `None` = unbounded.
    memory_budget: Option<u64>,
    /// Per-session result-cache capacity (entries).
    cache_capacity: usize,
    /// Digest-keyed snapshot cache directory: graph-backed loads check it
    /// before replaying a trace, and populate it after a cold build.
    snapshot_dir: Option<PathBuf>,
    inner: Mutex<ManagerInner>,
    /// Signalled whenever a loading registration clears (admission,
    /// [`Self::end_load`], a dropped [`LoadGuard`]), waking
    /// [`Self::wait_while_loading`].
    load_cleared: Condvar,
    /// The server's counter table: the manager writes its lifecycle and
    /// residency counts here, under its lock.
    counters: Arc<ServerCounters>,
}

const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SessionManager>();
    assert_send_sync::<SessionLease>();
};

impl SessionManager {
    /// A manager that builds `default_algo` backends with `config`,
    /// holding at most `max_sessions` sessions and (optionally) at most
    /// `memory_budget` total resident bytes; each session's result cache
    /// holds `cache_capacity` entries.
    pub fn new(
        default_algo: Algo,
        config: SlicerConfig,
        max_sessions: usize,
        memory_budget: Option<u64>,
        cache_capacity: usize,
    ) -> Self {
        SessionManager {
            default_algo,
            config,
            max_sessions: max_sessions.max(1),
            memory_budget,
            cache_capacity,
            snapshot_dir: None,
            inner: Mutex::new(ManagerInner {
                sessions: BTreeMap::new(),
                loading: BTreeMap::new(),
                retired: VecDeque::new(),
                retired_older: RetiredTotals::default(),
                lru_seq: 0,
                panics: BTreeMap::new(),
                quarantined: BTreeMap::new(),
            }),
            load_cleared: Condvar::new(),
            counters: Arc::default(),
        }
    }

    /// The counter table this manager and the server count into.
    pub fn server_counters(&self) -> &Arc<ServerCounters> {
        &self.counters
    }

    /// Wraps `slicer` as an entry with this manager's result-cache
    /// capacity, without admitting it: the caller holds it outside the
    /// resident table. That is the server's default (launch) trace, which
    /// takes no session slot or budget and is never listed, evicted or
    /// quarantined.
    pub fn default_entry(&self, slicer: OwnedSlicer) -> SessionEntry {
        SessionEntry::new(String::new(), slicer, self.cache_capacity)
    }

    /// Publishes the resident set's levels into the counter table; run
    /// under the manager lock after every change to it.
    fn publish(&self, inner: &ManagerInner) {
        let c = &*self.counters;
        c.sessions_resident.store(inner.sessions.len() as u64, Ordering::SeqCst);
        let bytes = inner.sessions.values().map(|e| e.resident_bytes()).sum();
        c.sessions_resident_bytes.store(bytes, Ordering::SeqCst);
        // A loading entry that shadows a resident name (a replacement
        // build) is not counted twice, matching `list`.
        let loading = inner.loading.keys().filter(|n| !inner.sessions.contains_key(*n)).count();
        c.sessions_loading.store(loading as u64, Ordering::SeqCst);
        c.quarantined_now.store(inner.quarantined.len() as u64, Ordering::SeqCst);
    }

    /// The manager lock, recovering from poisoning. Each mutation under
    /// it leaves the maps structurally valid between statements, and the
    /// worker pool catches panics — so a poisoned flag here means "some
    /// request died mid-operation", not "the registry is garbage".
    /// Propagating it would turn one isolated panic into a permanently
    /// dead session table.
    fn locked(&self) -> std::sync::MutexGuard<'_, ManagerInner> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Points graph-backed loads at a digest-keyed snapshot cache
    /// directory: a `load` whose `(source, input, opt-config)` digest has
    /// a cached snapshot deserializes it instead of replaying the trace,
    /// and a cold build writes its snapshot back (best-effort, atomic
    /// rename). Corrupt cache entries are treated as misses and
    /// overwritten by the rebuild.
    pub fn set_snapshot_dir(&mut self, dir: impl Into<PathBuf>) {
        self.snapshot_dir = Some(dir.into());
    }

    /// Builds (or restores) the backend `spec` describes, without
    /// touching the resident set: explicit snapshot restores first, then
    /// the digest-keyed snapshot cache, then a plain build.
    fn build_backend(
        &self,
        spec: &SessionSpec,
        algo: Algo,
        reg: &Registry,
    ) -> Result<OwnedSlicer, LoadError> {
        dynslice_faults::hit("build")
            .map_err(|f| LoadError::Io(std::io::Error::other(f.to_string())))?;
        if let Some(path) = &spec.snapshot {
            match reg.time_phase(phases::SNAPSHOT_IO, || snapshot::load(path)) {
                Ok((snap, nbytes)) => {
                    reg.counter_add("snapshot.read_bytes", nbytes);
                    return OwnedSlicer::from_snapshot(snap, algo, &self.config, reg);
                }
                // Degraded mode: an I/O failure reading an explicit
                // snapshot falls back to a cold rebuild when the spec
                // also names a program — the same repair the digest
                // cache applies to corrupt entries, extended to I/O
                // faults. Without a program there is nothing to rebuild
                // from, so the error surfaces.
                Err(SnapshotError::Io(e)) => {
                    if spec.program.as_os_str().is_empty() {
                        return Err(LoadError::Io(e));
                    }
                    reg.counter_add("snapshot.restore_fallback", 1);
                }
                Err(other) => {
                    return Err(LoadError::Bad(format!(
                        "cannot load snapshot `{}`: {other}",
                        path.display()
                    )))
                }
            }
        }
        let src = std::fs::read_to_string(&spec.program).map_err(|e| {
            LoadError::Bad(format!("cannot read program `{}`: {e}", spec.program.display()))
        })?;
        let cache = match (&self.snapshot_dir, algo) {
            (Some(dir), Algo::Opt | Algo::Paged) => {
                let digest = snapshot::digest(&src, &spec.input, &self.config.opt);
                Some((dir.clone(), dir.join(format!("{digest:016x}.dsnap"))))
            }
            _ => None,
        };
        if let Some((dir, path)) = cache {
            if path.exists() {
                // A corrupt or unreadable entry is a miss: fall through
                // to the rebuild, which overwrites it.
                if let Ok((snap, nbytes)) =
                    reg.time_phase(phases::SNAPSHOT_IO, || snapshot::load(&path))
                {
                    reg.counter_add("snapshot.hit", 1);
                    reg.counter_add("snapshot.read_bytes", nbytes);
                    return OwnedSlicer::from_snapshot(snap, algo, &self.config, reg);
                }
            }
            reg.counter_add("snapshot.miss", 1);
            let (slicer, bytes) = OwnedSlicer::build_with_snapshot(
                &src,
                spec.input.clone(),
                algo,
                &self.config,
                reg,
            )?;
            // Best-effort publish: a failed write must not fail the load,
            // and the rename keeps concurrent readers off half-written
            // files.
            reg.time_phase(phases::SNAPSHOT_IO, || {
                let tmp = path.with_extension(format!("tmp-{}", std::process::id()));
                if std::fs::create_dir_all(&dir).is_ok()
                    && std::fs::write(&tmp, &bytes).is_ok()
                    && std::fs::rename(&tmp, &path).is_ok()
                {
                    reg.counter_add("snapshot.write_bytes", bytes.len() as u64);
                } else {
                    std::fs::remove_file(&tmp).ok();
                }
            });
            return Ok(slicer);
        }
        OwnedSlicer::build(&src, spec.input.clone(), algo, &self.config, reg)
    }

    /// Builds the session described by `spec` and admits it, evicting
    /// idle sessions LRU-first if the budget or session cap requires.
    /// Loading a name that is already resident replaces the old session
    /// (retired as unloaded). The expensive build runs **before** any
    /// lock is taken, so resident sessions keep serving during a load.
    ///
    /// # Errors
    /// See [`LoadError`]; a rejected build leaves the resident set
    /// exactly as it was (sessions evicted to make room are only chosen
    /// once admission is certain).
    pub fn load(&self, spec: &SessionSpec, reg: &Registry) -> Result<Arc<SessionEntry>, LoadError> {
        let algo = spec.algo.unwrap_or(self.default_algo);
        let entry = Arc::new(SessionEntry::new(
            spec.name.clone(),
            self.build_backend(spec, algo, reg)?,
            self.cache_capacity,
        ));
        let resident_bytes = entry.resident_bytes();
        if let Some(budget) = self.memory_budget {
            if resident_bytes > budget {
                self.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                return Err(LoadError::Rejected(format!(
                    "session `{}` needs {resident_bytes} resident bytes, over the \
                     {budget}-byte budget",
                    spec.name
                )));
            }
        }
        let mut inner = self.locked();
        // Re-weigh the resident set before planning: paged backends grow
        // as queries page blocks in, so admission must never trust the
        // weights recorded when the sessions were themselves admitted.
        for e in inner.sessions.values() {
            e.reweigh();
        }
        // Plan the evictions first so a rejected load disturbs nothing.
        let occupied: u64 = inner
            .sessions
            .iter()
            .filter(|(n, _)| **n != spec.name)
            .map(|(_, e)| e.resident_bytes())
            .sum();
        let replacing = inner.sessions.contains_key(&spec.name);
        let mut victims: Vec<String> = Vec::new();
        {
            let idle_lru = |inner: &ManagerInner, victims: &[String]| {
                inner
                    .sessions
                    .iter()
                    .filter(|(n, e)| {
                        **n != spec.name
                            && !victims.contains(n)
                            && e.in_flight.load(Ordering::SeqCst) == 0
                    })
                    .min_by_key(|(_, e)| e.last_used.load(Ordering::SeqCst))
                    .map(|(n, _)| n.clone())
            };
            let mut count = inner.sessions.len() - usize::from(replacing);
            let mut bytes = occupied;
            let over = |count: usize, bytes: u64| {
                count + 1 > self.max_sessions
                    || self.memory_budget.is_some_and(|b| bytes + resident_bytes > b)
            };
            while over(count, bytes) {
                let Some(victim) = idle_lru(&inner, &victims) else {
                    // The re-weighing above may have moved the total.
                    self.publish(&inner);
                    self.counters.sessions_rejected.fetch_add(1, Ordering::Relaxed);
                    return Err(LoadError::Rejected(format!(
                        "cannot admit session `{}` ({resident_bytes} resident bytes): \
                         every resident session is busy",
                        spec.name
                    )));
                };
                count -= 1;
                bytes -= inner.sessions[&victim].resident_bytes();
                victims.push(victim);
            }
        }
        for victim in victims {
            // Provably present: victims were selected from `inner.sessions`
            // under this same lock, and nothing removed them since.
            let gone = inner.sessions.remove(&victim).expect("planned victim is resident");
            let report = gone.final_counters(true);
            inner.retire(victim, report);
            self.counters.sessions_evicted.fetch_add(1, Ordering::Relaxed);
        }
        if let Some(old) = inner.sessions.remove(&spec.name) {
            let report = old.final_counters(false);
            inner.retire(spec.name.clone(), report);
            self.counters.sessions_unloaded.fetch_add(1, Ordering::Relaxed);
        }
        inner.lru_seq += 1;
        entry.last_used.store(inner.lru_seq, Ordering::SeqCst);
        inner.sessions.insert(spec.name.clone(), Arc::clone(&entry));
        // An asynchronous load registered the name as pending; admitting
        // under the same lock makes the loading→resident handoff atomic.
        if inner.loading.remove(&spec.name).is_some() {
            self.load_cleared.notify_all();
        }
        // A fresh load is the quarantine exit: the new backend starts
        // with a clean panic record.
        inner.quarantined.remove(&spec.name);
        inner.panics.remove(&spec.name);
        self.counters.sessions_loaded.fetch_add(1, Ordering::Relaxed);
        self.publish(&inner);
        Ok(entry)
    }

    /// Registers `name` as loading (the asynchronous `load` path): `list`
    /// reports it with `state: loading` until the background build either
    /// admits it (inside [`Self::load`]) or fails ([`Self::end_load`]).
    /// Returns `false` — and registers nothing — if the name is already
    /// loading. Beginning a load for a *resident* name is allowed:
    /// completion replaces the old session, like a blocking re-`load`.
    pub fn begin_load(&self, name: &str, algo: Option<Algo>) -> bool {
        let mut inner = self.locked();
        if inner.loading.contains_key(name) {
            return false;
        }
        inner.loading.insert(name.to_string(), algo.unwrap_or(self.default_algo));
        self.publish(&inner);
        true
    }

    /// Clears a pending load registered by [`Self::begin_load`] — the
    /// failure path of an asynchronous build, so the name stops listing
    /// as `loading`. (A successful build clears it inside [`Self::load`].)
    pub fn end_load(&self, name: &str) {
        let mut inner = self.locked();
        inner.loading.remove(name);
        self.publish(&inner);
        self.load_cleared.notify_all();
    }

    /// Whether an asynchronous load for `name` is still building.
    pub fn is_loading(&self, name: &str) -> bool {
        self.locked().loading.contains_key(name)
    }

    /// Blocks while an asynchronous load for `name` is still building,
    /// until its registration clears or `deadline` passes (`None` waits
    /// for the build however long it takes). Returns whether the name is
    /// still loading — `true` only when the deadline cut the wait short.
    pub(crate) fn wait_while_loading(&self, name: &str, deadline: Option<Instant>) -> bool {
        let mut inner = self.locked();
        while inner.loading.contains_key(name) {
            inner = match deadline {
                None => self.load_cleared.wait(inner).unwrap_or_else(PoisonError::into_inner),
                Some(deadline) => {
                    let left = deadline.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return true;
                    }
                    let (inner, _) = self
                        .load_cleared
                        .wait_timeout(inner, left)
                        .unwrap_or_else(PoisonError::into_inner);
                    inner
                }
            };
        }
        false
    }

    /// An RAII wrapper for the [`Self::begin_load`]/[`Self::end_load`]
    /// obligation: dropping the guard clears the pending-load
    /// registration, so a panic (or early return) between the two can
    /// never wedge the name in `loading` forever. Call
    /// [`LoadGuard::disarm`] after a *successful* [`Self::load`] — the
    /// admission already cleared the registration under its own lock,
    /// and a disarmed drop must not erase a newer registration that
    /// raced in since.
    pub fn load_guard<'m>(&'m self, name: &str) -> LoadGuard<'m> {
        LoadGuard { manager: self, name: name.to_string(), armed: true }
    }

    /// Records one caught panic attributed to session `name`. At
    /// [`QUARANTINE_PANICS`] panics the session is quarantined: evicted
    /// (retiring its report), listed with `state: quarantined`, and
    /// refusing queries until the name is re-`load`ed. Returns whether
    /// this call quarantined it.
    pub fn record_panic(&self, name: &str) -> bool {
        let mut inner = self.locked();
        let count = inner.panics.entry(name.to_string()).or_insert(0);
        *count += 1;
        if *count < QUARANTINE_PANICS || inner.quarantined.contains_key(name) {
            return false;
        }
        let (algo, requests) = match inner.sessions.remove(name) {
            Some(entry) => {
                let report = entry.final_counters(true);
                let requests = entry.requests.load(Ordering::Relaxed);
                let algo = entry.slicer().name().to_string();
                inner.retire(name.to_string(), report);
                (algo, requests)
            }
            // The session may already be gone (evicted between panics);
            // quarantine the name anyway so further queries get the
            // typed error rather than `unknown_session` roulette.
            None => (self.default_algo.name().to_string(), 0),
        };
        inner.quarantined.insert(name.to_string(), (algo, requests));
        self.counters.sessions_quarantined.fetch_add(1, Ordering::Relaxed);
        self.publish(&inner);
        true
    }

    /// Whether `name` is quarantined (refusing queries until re-loaded).
    pub fn is_quarantined(&self, name: &str) -> bool {
        self.locked().quarantined.contains_key(name)
    }

    /// Re-weighs every resident session and evicts idle sessions
    /// LRU-first until the refreshed total fits the memory budget again;
    /// returns how many were evicted. Run after each session slice —
    /// that is when a paged backend's footprint grows. Sessions pinned
    /// by a lease are never evicted, so the total may stay over budget
    /// until they go idle; a no-op without a budget.
    pub fn enforce_budget(&self) -> u64 {
        let Some(budget) = self.memory_budget else { return 0 };
        let mut inner = self.locked();
        for e in inner.sessions.values() {
            e.reweigh();
        }
        let mut evicted = 0;
        loop {
            let total: u64 = inner.sessions.values().map(|e| e.resident_bytes()).sum();
            if total <= budget {
                break;
            }
            let victim = inner
                .sessions
                .iter()
                .filter(|(_, e)| e.in_flight.load(Ordering::SeqCst) == 0)
                .min_by_key(|(_, e)| e.last_used.load(Ordering::SeqCst))
                .map(|(n, _)| n.clone());
            let Some(victim) = victim else { break };
            // Provably present: the victim's key was read from
            // `inner.sessions` in this same loop iteration, under the lock.
            let gone = inner.sessions.remove(&victim).expect("victim is resident");
            let report = gone.final_counters(true);
            inner.retire(victim, report);
            self.counters.sessions_evicted.fetch_add(1, Ordering::Relaxed);
            evicted += 1;
        }
        self.publish(&inner);
        evicted
    }

    /// Leases the named session for one query, bumping its LRU stamp and
    /// pinning it against eviction; `None` if it is not resident.
    ///
    /// `conn` is the connection the query arrived on (0 = stdio); the
    /// entry tracks lifetime leases, the concurrent-lease peak, and the
    /// set of distinct connections, all surfaced in its final report.
    pub fn checkout(&self, name: &str, conn: u64) -> Option<SessionLease> {
        let mut inner = self.locked();
        let entry = Arc::clone(inner.sessions.get(name)?);
        inner.lru_seq += 1;
        entry.last_used.store(inner.lru_seq, Ordering::SeqCst);
        let held = entry.in_flight.fetch_add(1, Ordering::SeqCst) + 1;
        entry.lease_peak.fetch_max(held, Ordering::Relaxed);
        entry.leases.fetch_add(1, Ordering::Relaxed);
        entry.conns.lock().unwrap_or_else(std::sync::PoisonError::into_inner).insert(conn);
        Some(SessionLease { entry })
    }

    /// Drops the named session (queries already holding a lease finish
    /// against the detached backend). A name with an asynchronous `load`
    /// still building is refused with [`Unload::Loading`] — checked under
    /// the same lock the build's admission takes, so the refusal and the
    /// loading→resident handoff cannot interleave: dropping the resident
    /// session mid-build would let the build's completion resurrect the
    /// name an instant after the client saw it unloaded.
    pub fn unload(&self, name: &str) -> Unload {
        let mut inner = self.locked();
        if inner.loading.contains_key(name) {
            return Unload::Loading;
        }
        match inner.sessions.remove(name) {
            Some(entry) => {
                let report = entry.final_counters(false);
                inner.retire(name.to_string(), report);
                inner.panics.remove(name);
                self.counters.sessions_unloaded.fetch_add(1, Ordering::Relaxed);
                self.publish(&inner);
                Unload::Unloaded
            }
            // Unloading a quarantined name clears the marker: it is
            // listed, so a client can tear it down like any session.
            None if inner.quarantined.remove(name).is_some() => {
                inner.panics.remove(name);
                self.counters.sessions_unloaded.fetch_add(1, Ordering::Relaxed);
                self.publish(&inner);
                Unload::Unloaded
            }
            None => Unload::Missing,
        }
    }

    /// Resident and still-loading sessions, name-ascending — the `list`
    /// response payload. Loading entries carry the backend the build
    /// will produce and a zero weight (nothing is resident yet).
    pub fn list(&self) -> Vec<SessionInfo> {
        let inner = self.locked();
        let mut out: Vec<SessionInfo> = inner
            .sessions
            .iter()
            .map(|(name, e)| SessionInfo {
                name: name.clone(),
                algo: e.slicer().name().to_string(),
                resident_bytes: e.resident_bytes(),
                requests: e.requests.load(Ordering::Relaxed),
                loading: false,
                quarantined: false,
            })
            .collect();
        for (name, algo) in &inner.loading {
            if inner.sessions.contains_key(name) {
                continue; // a replacement build: the old session still serves
            }
            out.push(SessionInfo {
                name: name.clone(),
                algo: algo.name().to_string(),
                resident_bytes: 0,
                requests: 0,
                loading: true,
                quarantined: false,
            });
        }
        for (name, (algo, requests)) in &inner.quarantined {
            if inner.sessions.contains_key(name) || inner.loading.contains_key(name) {
                continue; // a re-load is already resurrecting the name
            }
            out.push(SessionInfo {
                name: name.clone(),
                algo: algo.clone(),
                resident_bytes: 0,
                requests: *requests,
                loading: false,
                quarantined: true,
            });
        }
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }

    /// Per-session sub-reports for the final [`dynslice_obs::RunReport`]:
    /// resident sessions under their names, the newest [`RETIRED_KEPT`]
    /// retired ones after them (suffixed `#2`, `#3`, … when a name was
    /// reused), and the older retired ones summed under
    /// [`RETIRED_OLDER`].
    pub fn final_reports(&self) -> BTreeMap<String, SessionReport> {
        let inner = self.locked();
        let mut out = BTreeMap::new();
        for (name, entry) in &inner.sessions {
            out.insert(name.clone(), entry.final_counters(false).report());
        }
        let mut next = HashMap::new();
        for (name, counters) in &inner.retired {
            let key = unique_key(&out, &mut next, name);
            out.insert(key, counters.report());
        }
        if inner.retired_older.sessions > 0 {
            let key = unique_key(&out, &mut next, RETIRED_OLDER);
            out.insert(key, inner.retired_older.report());
        }
        out
    }
}

/// `name`, or else the first of `name#2`, `name#3`, … that `out` lacks.
/// `next` holds the suffix to try next per name: keys are never freed,
/// so each name's search resumes where its last one stopped and a name
/// reused n times costs n probes in all.
fn unique_key<'n>(
    out: &BTreeMap<String, SessionReport>,
    next: &mut HashMap<&'n str, u64>,
    name: &'n str,
) -> String {
    let n = next.entry(name).or_insert(1);
    loop {
        let key = if *n == 1 { name.to_string() } else { format!("{name}#{n}") };
        *n += 1;
        if !out.contains_key(&key) {
            return key;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROGRAM: &str = "global int a[2];
         fn main() { a[0] = input(); a[1] = a[0] * 2; print a[1]; }";

    /// Loop-heavy program for the paged-backend tests: its label channels
    /// span several spill blocks, so slicing actually pages data in
    /// (the tiny [`PROGRAM`] fits in zero blocks and would never grow).
    const PAGED_PROGRAM: &str = "global int a[16];
         fn main() {
           int i;
           int s = input();
           for (i = 0; i < 300; i = i + 1) {
             int k = i % 16;
             a[k] = a[k] + i + s;
             if (i % 7 == 0) { s = s + a[k]; }
           }
           print s;
         }";

    fn write_program(dir: &std::path::Path, name: &str) -> PathBuf {
        write_source(dir, name, PROGRAM)
    }

    fn write_source(dir: &std::path::Path, name: &str, source: &str) -> PathBuf {
        std::fs::create_dir_all(dir).unwrap();
        let path = dir.join(name);
        std::fs::write(&path, source).unwrap();
        path
    }

    fn scratch(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dynslice-sessions-{tag}-{}", std::process::id()))
    }

    fn manager(max: usize, budget: Option<u64>, tag: &str) -> SessionManager {
        manager_with(Algo::Opt, max, budget, tag)
    }

    fn manager_with(algo: Algo, max: usize, budget: Option<u64>, tag: &str) -> SessionManager {
        let config =
            SlicerConfig { scratch_dir: scratch(tag).join("scratch"), ..SlicerConfig::default() };
        SessionManager::new(algo, config, max, budget, 16)
    }

    /// Paged-backend manager whose page cache starts empty, so slicing
    /// pages labels in (and the session's live weight grows past its
    /// cold one). Its 8 pages hold all of `PAGED_PROGRAM`'s 5: nothing is
    /// evicted, so a slice leaves the same pages resident whatever order
    /// the walk touched them in.
    fn paged_manager(max: usize, budget: Option<u64>, tag: &str) -> SessionManager {
        let config = SlicerConfig {
            scratch_dir: scratch(tag).join("scratch"),
            resident_blocks: 8,
            ..SlicerConfig::default()
        };
        SessionManager::new(Algo::Paged, config, max, budget, 16)
    }

    fn evicted(m: &SessionManager) -> u64 {
        m.server_counters().sessions_evicted.load(Ordering::Relaxed)
    }

    fn spec(name: &str, program: &std::path::Path) -> SessionSpec {
        SessionSpec {
            name: name.into(),
            program: program.to_path_buf(),
            input: vec![21],
            algo: None,
            snapshot: None,
        }
    }

    #[test]
    fn lru_cache_evicts_least_recently_used() {
        let mut cache = LruCache::new(2);
        let (a, b, c) = (Criterion::Output(0), Criterion::Output(1), Criterion::Output(2));
        cache.insert(a, Arc::new(vec![0]));
        cache.insert(b, Arc::new(vec![1]));
        assert_eq!(cache.get(&a).as_deref(), Some(&vec![0])); // a is now hot
        cache.insert(c, Arc::new(vec![2])); // evicts b
        assert!(cache.get(&b).is_none());
        assert_eq!(cache.get(&a).as_deref(), Some(&vec![0]));
        assert_eq!(cache.get(&c).as_deref(), Some(&vec![2]));
    }

    #[test]
    fn lru_cache_capacity_zero_disables_caching() {
        let mut cache = LruCache::new(0);
        cache.insert(Criterion::Output(0), Arc::new(vec![0]));
        assert!(cache.get(&Criterion::Output(0)).is_none());
    }

    #[test]
    fn preload_spec_syntax() {
        let s = SessionSpec::parse("t1=/tmp/a.minic@4;-5;6").unwrap();
        assert_eq!(s.name, "t1");
        assert_eq!(s.program, PathBuf::from("/tmp/a.minic"));
        assert_eq!(s.input, vec![4, -5, 6]);
        let s = SessionSpec::parse("/tmp/dir/prog.minic").unwrap();
        assert_eq!(s.name, "prog", "name defaults to the file stem");
        assert!(s.input.is_empty());
        assert!(SessionSpec::parse("t1=").is_err(), "no path");
        assert!(SessionSpec::parse("=a.minic").is_err(), "empty name");
        assert!(SessionSpec::parse("a.minic@x").is_err(), "bad input value");
    }

    #[test]
    fn owned_slicer_answers_like_a_direct_build() {
        let reg = Registry::new();
        let config = SlicerConfig::default();
        let owned =
            OwnedSlicer::build(PROGRAM, vec![21], Algo::Opt, &config, &reg).unwrap();
        let direct_session = Session::compile(PROGRAM).unwrap();
        let trace = direct_session.run(vec![21]);
        let direct = direct_session.opt(&trace, &config.opt);
        let c = Criterion::Output(0);
        assert_eq!(owned.slicer().slice(&c).unwrap(), direct.slice(&c).unwrap());
        assert!(owned.slicer().resident_bytes() > 0);
    }

    #[test]
    fn load_checkout_unload_lifecycle() {
        let dir = scratch("lifecycle");
        let program = write_program(&dir, "p.minic");
        let m = manager(4, None, "lifecycle");
        let reg = Registry::new();
        let entry = m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(entry.name(), "a");
        let lease = m.checkout("a", 0).expect("resident");
        assert!(lease.slicer().slice(&Criterion::Output(0)).is_ok());
        drop(lease);
        assert!(m.checkout("missing", 0).is_none());
        let listed = m.list();
        assert_eq!(listed.len(), 1);
        assert_eq!(listed[0].name, "a");
        assert_eq!(listed[0].algo, "opt");
        assert_eq!(m.unload("a"), Unload::Unloaded);
        assert_eq!(m.unload("a"), Unload::Missing, "second unload finds nothing");
        assert!(m.checkout("a", 0).is_none());
        let c = m.server_counters();
        let n = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        let counts = (n(&c.sessions_loaded), n(&c.sessions_unloaded), n(&c.sessions_evicted));
        assert_eq!((counts, n(&c.sessions_rejected)), ((1, 1, 0), 0));
        let reports = m.final_reports();
        assert!(reports.contains_key("a"), "retired sessions still report");
        let retired = &reports["a"];
        let keys: Vec<&str> = retired.counters.keys().map(String::as_str).collect();
        let want = ["cache_hits", "cache_misses", "client_connections", "leases", "requests"];
        assert_eq!(keys, want);
        assert_eq!(retired.counters["leases"], 1);
        assert_eq!(retired.gauges["resident_bytes"], entry.resident_bytes() as f64);
        assert!(!retired.gauges.contains_key("evicted"), "unloaded, not evicted");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn budget_evicts_idle_lru_and_rejects_when_pinned() {
        let dir = scratch("budget");
        let program = write_program(&dir, "p.minic");
        let probe = manager(8, None, "budget-probe");
        let reg = Registry::new();
        let one = probe.load(&spec("probe", &program), &reg).unwrap().resident_bytes();
        // Room for one session, not two.
        let m = manager(8, Some(one + one / 2), "budget");
        m.load(&spec("a", &program), &reg).unwrap();
        m.load(&spec("b", &program), &reg).unwrap();
        assert!(m.checkout("a", 0).is_none(), "a was evicted to admit b");
        assert!(m.checkout("b", 0).is_some());
        assert_eq!(evicted(&m), 1);
        // A pinned session cannot be evicted: the load is rejected and
        // the resident set is untouched.
        let lease = m.checkout("b", 0).unwrap();
        match m.load(&spec("c", &program), &reg) {
            Err(LoadError::Rejected(msg)) => assert!(msg.contains("busy"), "{msg}"),
            other => panic!("expected rejection, got {:?}", other.map(|e| e.name().to_string())),
        }
        drop(lease);
        assert!(m.checkout("b", 0).is_some(), "rejected load left `b` resident");
        // Idle again: the reload works and evicts LRU `b`.
        m.load(&spec("c", &program), &reg).unwrap();
        assert!(m.checkout("c", 0).is_some());
        assert_eq!(evicted(&m), 2);
        let reports = m.final_reports();
        assert_eq!(reports["a"].gauges.get("evicted"), Some(&1.0));
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: the memory budget must charge *live* weight, not the
    /// build-time snapshot. A paged session is admitted at its cold
    /// weight, grows past the budget as slices page label blocks into
    /// its cache, and is evicted by the next enforcement pass — but only
    /// once idle.
    #[test]
    fn paged_session_growth_is_reweighed_and_evicted() {
        let dir = scratch("reweigh");
        let program = write_source(&dir, "p.minic", PAGED_PROGRAM);
        let reg = Registry::new();
        // Probe the cold (build-time) weight with an unbudgeted manager.
        let probe = paged_manager(8, None, "reweigh-probe");
        let cold = probe.load(&spec("probe", &program), &reg).unwrap().resident_bytes();
        // The budget admits the cold session with a byte to spare, so any
        // paged-in block busts it.
        let m = paged_manager(8, Some(cold + 1), "reweigh");
        let entry = m.load(&spec("p", &program), &reg).unwrap();
        assert_eq!(entry.resident_bytes(), cold, "deterministic build");
        let lease = m.checkout("p", 0).unwrap();
        lease.slicer().slice(&Criterion::Output(0)).unwrap();
        assert!(lease.reweigh() > cold + 1, "slicing pages blocks in");
        assert_eq!(m.enforce_budget(), 0, "pinned sessions are never evicted");
        drop(lease);
        assert_eq!(m.enforce_budget(), 1, "idle over-budget session is evicted");
        assert!(m.checkout("p", 0).is_none());
        assert_eq!(evicted(&m), 1);
        let reports = m.final_reports();
        assert_eq!(reports["p"].gauges.get("evicted"), Some(&1.0));
        assert!(
            reports["p"].gauges["resident_bytes"] > cold as f64,
            "the report carries the grown weight, not the admitted one"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The admission pass, too, must see grown weights: a paged session
    /// that outgrew its admitted footprint is evicted when the next load
    /// needs its room, even though the stale weights would have fit.
    #[test]
    fn admission_pass_reweighs_grown_paged_sessions() {
        let dir = scratch("admit-reweigh");
        let program = write_source(&dir, "p.minic", PAGED_PROGRAM);
        let reg = Registry::new();
        let probe = paged_manager(8, None, "admit-probe");
        let cold = probe.load(&spec("probe", &program), &reg).unwrap().resident_bytes();
        let lease = probe.checkout("probe", 0).unwrap();
        lease.slicer().slice(&Criterion::Output(0)).unwrap();
        let warm = lease.reweigh();
        drop(lease);
        assert!(warm > cold, "slicing grows a paged session");

        // Fits warm p alone, and two cold sessions — but not warm + cold.
        let m = paged_manager(8, Some(warm + cold / 2), "admit");
        m.load(&spec("p", &program), &reg).unwrap();
        let lease = m.checkout("p", 0).unwrap();
        lease.slicer().slice(&Criterion::Output(0)).unwrap();
        drop(lease);
        // Admitting `q` must charge p's grown weight, not its stale
        // admitted one (which would have let both fit).
        m.load(&spec("q", &program), &reg).unwrap();
        assert!(m.checkout("p", 0).is_none(), "grown p was evicted to fit q");
        assert!(m.checkout("q", 0).is_some());
        assert_eq!(evicted(&m), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The loading registry behind asynchronous `load`: `begin_load`
    /// marks a name pending (shown by `list`, second load refused),
    /// `end_load` clears a failed build, and a successful [`load`]
    /// clears the pending entry in the same step that admits it.
    #[test]
    fn loading_state_registry() {
        let dir = scratch("loading");
        let program = write_program(&dir, "p.minic");
        let m = manager(4, None, "loading");
        let reg = Registry::new();
        assert!(m.begin_load("x", None));
        assert!(!m.begin_load("x", Some(Algo::Lp)), "a loading name refuses a second load");
        assert!(m.is_loading("x"));
        let listed = m.list();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].loading);
        assert_eq!(listed[0].algo, "opt", "pending entries report the default backend");
        assert_eq!(listed[0].resident_bytes, 0);
        // A failed build clears the pending entry.
        m.end_load("x");
        assert!(!m.is_loading("x"));
        assert!(m.list().is_empty());
        // A successful build admits under the same name atomically.
        assert!(m.begin_load("y", None));
        m.load(&spec("y", &program), &reg).unwrap();
        assert!(!m.is_loading("y"), "admission clears the pending entry");
        let listed = m.list();
        assert_eq!(listed.len(), 1);
        assert!(!listed[0].loading);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A `wait` checkout sleeps until the name's loading registration
    /// clears — by admission, by `end_load`, or by a dropped guard — and
    /// gives up, still loading, at its deadline.
    #[test]
    fn wait_while_loading_wakes_when_the_registration_clears() {
        use std::time::Duration;
        let dir = scratch("wait-loading");
        let program = write_program(&dir, "p.minic");
        let m = manager(4, None, "wait-loading");
        let reg = Registry::new();
        assert!(!m.wait_while_loading("x", None), "nothing loading: no wait");

        assert!(m.begin_load("x", None));
        let started = Instant::now();
        let cut = Some(started + Duration::from_millis(30));
        assert!(m.wait_while_loading("x", cut), "the deadline ends the wait");
        assert!(started.elapsed() >= Duration::from_millis(30));

        let far = Some(Instant::now() + Duration::from_secs(30));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                m.end_load("x");
            });
            assert!(!m.wait_while_loading("x", far), "end_load wakes the waiter");
        });
        assert!(m.begin_load("x", None));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                let _guard = m.load_guard("x");
                std::thread::sleep(Duration::from_millis(20));
            });
            assert!(!m.wait_while_loading("x", far), "a dropped guard wakes the waiter");
        });
        assert!(m.begin_load("x", None));
        std::thread::scope(|scope| {
            scope.spawn(|| {
                std::thread::sleep(Duration::from_millis(20));
                m.load(&spec("x", &program), &reg).unwrap();
            });
            assert!(!m.wait_while_loading("x", None), "admission wakes the waiter");
        });
        assert!(m.checkout("x", 0).is_some(), "the woken waiter finds it resident");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn max_sessions_caps_the_table_and_reload_replaces() {
        let dir = scratch("cap");
        let program = write_program(&dir, "p.minic");
        let m = manager(2, None, "cap");
        let reg = Registry::new();
        m.load(&spec("a", &program), &reg).unwrap();
        m.load(&spec("b", &program), &reg).unwrap();
        m.load(&spec("c", &program), &reg).unwrap(); // evicts a (LRU)
        assert!(m.checkout("a", 0).is_none());
        assert_eq!(m.list().len(), 2);
        // Reloading a resident name replaces in place, no eviction.
        m.load(&spec("b", &program), &reg).unwrap();
        assert_eq!(m.list().len(), 2);
        assert_eq!(evicted(&m), 1);
        let unloaded = m.server_counters().sessions_unloaded.load(Ordering::Relaxed);
        assert_eq!(unloaded, 1, "replacement retires the old `b`");
        let reports = m.final_reports();
        assert!(reports.contains_key("b"), "live b");
        assert!(reports.contains_key("b#2"), "retired b keeps reporting under a suffix");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// `list` output is name-sorted no matter the order sessions were
    /// loaded in, interleaving resident and still-loading names — the
    /// serialized payload must not depend on load history.
    #[test]
    fn list_is_name_sorted_across_resident_and_loading() {
        let dir = scratch("list-order");
        let program = write_program(&dir, "p.minic");
        let m = manager(8, None, "list-order");
        let reg = Registry::new();
        m.load(&spec("d", &program), &reg).unwrap();
        m.load(&spec("b", &program), &reg).unwrap();
        assert!(m.begin_load("c", None));
        assert!(m.begin_load("a", None));
        let names: Vec<String> = m.list().into_iter().map(|s| s.name).collect();
        assert_eq!(names, ["a", "b", "c", "d"]);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: `unload` racing an in-flight asynchronous `load` must
    /// be refused, not report "not resident" (or worse, drop a resident
    /// session a replacement build is about to supersede — completion
    /// would resurrect the name the client just saw unloaded).
    #[test]
    fn unload_while_loading_is_refused() {
        let dir = scratch("unload-race");
        let program = write_program(&dir, "p.minic");
        let m = manager(4, None, "unload-race");
        let reg = Registry::new();
        // Fresh name: loading, not yet resident.
        assert!(m.begin_load("x", None));
        assert_eq!(m.unload("x"), Unload::Loading, "in-flight load refuses unload");
        m.load(&spec("x", &program), &reg).unwrap();
        assert_eq!(m.unload("x"), Unload::Unloaded, "admitted session unloads normally");
        assert_eq!(m.unload("x"), Unload::Missing);
        // Resident name with a replacement build in flight: still refused,
        // and the resident session keeps serving.
        m.load(&spec("y", &program), &reg).unwrap();
        assert!(m.begin_load("y", None));
        assert_eq!(m.unload("y"), Unload::Loading);
        assert!(m.checkout("y", 0).is_some(), "refused unload left `y` resident");
        m.end_load("y");
        assert_eq!(m.unload("y"), Unload::Unloaded);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// An explicit snapshot restore answers exactly like the build that
    /// produced the snapshot, and non-graph backends refuse snapshots
    /// with a typed client error.
    #[test]
    fn explicit_snapshot_restore_matches_fresh_build() {
        let dir = scratch("snapfile");
        std::fs::create_dir_all(&dir).unwrap();
        let reg = Registry::new();
        let config =
            SlicerConfig { scratch_dir: dir.join("scratch"), ..SlicerConfig::default() };
        let (built, bytes) =
            OwnedSlicer::build_with_snapshot(PROGRAM, vec![21], Algo::Opt, &config, &reg)
                .unwrap();
        let file = dir.join("a.dsnap");
        std::fs::write(&file, &bytes).unwrap();
        let m = manager(4, None, "snapfile");
        let c = Criterion::Output(0);
        let from_snap = SessionSpec {
            name: "a".into(),
            program: PathBuf::new(),
            input: Vec::new(),
            algo: None,
            snapshot: Some(file.clone()),
        };
        let entry = m.load(&from_snap, &reg).unwrap();
        assert_eq!(
            entry.slicer().slice(&c).unwrap(),
            built.slicer().slice(&c).unwrap(),
            "restored backend answers like the build that wrote the snapshot"
        );
        assert!(reg.counter("snapshot.read_bytes") >= bytes.len() as u64);
        // The paged hybrid restores from the same snapshot.
        let paged = SessionSpec { name: "p".into(), algo: Some(Algo::Paged), ..from_snap.clone() };
        let entry = m.load(&paged, &reg).unwrap();
        assert_eq!(entry.slicer().slice(&c).unwrap(), built.slicer().slice(&c).unwrap());
        // Trace-replaying backends cannot.
        let lp = SessionSpec { name: "l".into(), algo: Some(Algo::Lp), ..from_snap.clone() };
        match m.load(&lp, &reg) {
            Err(LoadError::Bad(msg)) => assert!(msg.contains("cannot load one"), "{msg}"),
            other => panic!("expected Bad, got {:?}", other.map(|e| e.name().to_string())),
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The digest-keyed snapshot cache: a cold load misses and populates
    /// it, a reload hits it (answering identically), and a corrupt entry
    /// degrades to a miss that rebuilds and overwrites.
    #[test]
    fn snapshot_cache_hits_misses_and_survives_corruption() {
        let dir = scratch("snapcache");
        let program = write_program(&dir, "p.minic");
        let cache = dir.join("snapcache");
        let mut m = manager(4, None, "snapcache");
        m.set_snapshot_dir(&cache);
        let reg = Registry::new();
        let c = Criterion::Output(0);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(
            (reg.counter("snapshot.miss"), reg.counter("snapshot.hit")),
            (1, 0),
            "cold load misses"
        );
        assert!(reg.counter("snapshot.write_bytes") > 0, "cold build populates the cache");
        let cold = m.checkout("a", 0).unwrap().slicer().slice(&c).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&cache)
            .unwrap()
            .map(|e| e.unwrap().path())
            .filter(|p| p.extension().is_some_and(|e| e == "dsnap"))
            .collect();
        assert_eq!(entries.len(), 1, "one digest-keyed entry");
        assert_eq!(m.unload("a"), Unload::Unloaded);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(
            (reg.counter("snapshot.miss"), reg.counter("snapshot.hit")),
            (1, 1),
            "reload hits the cache"
        );
        assert_eq!(m.checkout("a", 0).unwrap().slicer().slice(&c).unwrap(), cold);
        // Corrupt the cached entry mid-payload: the next load degrades to
        // a miss, rebuilds from the trace, and overwrites the entry.
        let mut bytes = std::fs::read(&entries[0]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        std::fs::write(&entries[0], &bytes).unwrap();
        assert_eq!(m.unload("a"), Unload::Unloaded);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(
            (reg.counter("snapshot.miss"), reg.counter("snapshot.hit")),
            (2, 1),
            "corrupt entry is a miss, not an error"
        );
        assert_eq!(m.checkout("a", 0).unwrap().slicer().slice(&c).unwrap(), cold);
        assert_eq!(m.unload("a"), Unload::Unloaded);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(
            (reg.counter("snapshot.miss"), reg.counter("snapshot.hit")),
            (2, 2),
            "the rebuild repaired the cache entry"
        );
        // An input change re-keys the digest: no stale hit.
        let other = SessionSpec { input: vec![7], ..spec("b", &program) };
        m.load(&other, &reg).unwrap();
        assert_eq!(reg.counter("snapshot.miss"), 3, "different input, different digest");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Graph-backed backends keep no compiled program: a restored OPT
    /// session, a restored paged session and the cold builds behind them
    /// hold no `Session`, and each slices every output and last
    /// definition like a plain cold OPT build. FP and LP borrow the
    /// program and keep it.
    #[test]
    fn graph_backed_sessions_hold_no_compiled_program() {
        let dir = scratch("no-session");
        let reg = Registry::new();
        let config =
            SlicerConfig { scratch_dir: dir.join("scratch"), ..SlicerConfig::default() };
        let input = vec![5];
        let cold = OwnedSlicer::build(PAGED_PROGRAM, input.clone(), Algo::Opt, &config, &reg)
            .unwrap();
        let (with_snap, bytes) =
            OwnedSlicer::build_with_snapshot(PAGED_PROGRAM, input.clone(), Algo::Opt, &config, &reg)
                .unwrap();
        let paged = OwnedSlicer::build(PAGED_PROGRAM, input.clone(), Algo::Paged, &config, &reg)
            .unwrap();
        let restore = |algo| {
            let snap = snapshot::decode(&bytes).unwrap();
            OwnedSlicer::from_snapshot(snap, algo, &config, &reg).unwrap()
        };
        let (restored_opt, restored_paged) = (restore(Algo::Opt), restore(Algo::Paged));
        let graph = cold.slicer().compact_graph().unwrap();
        let mut criteria: Vec<Criterion> =
            (0..graph.outputs.len()).map(Criterion::Output).collect();
        criteria.extend(graph.last_def.keys().map(|&c| Criterion::CellLastDef(c)));
        assert!(criteria.len() > 2);
        for (what, owned) in [
            ("cold paged build", &paged),
            ("build_with_snapshot", &with_snap),
            ("restored opt", &restored_opt),
            ("restored paged", &restored_paged),
        ] {
            assert!(!owned.holds_session(), "{what} holds a compiled program");
            for c in &criteria {
                assert_eq!(
                    owned.slicer().slice(c).unwrap(),
                    cold.slicer().slice(c).unwrap(),
                    "{what}: {c:?}"
                );
            }
        }
        assert!(!cold.holds_session(), "cold OPT build holds a compiled program");
        for algo in [Algo::Fp, Algo::Lp] {
            let owned = OwnedSlicer::build(PAGED_PROGRAM, input.clone(), algo, &config, &reg)
                .unwrap();
            assert!(owned.holds_session(), "{algo:?} borrows the program");
            let c = &criteria[0];
            assert_eq!(owned.slicer().slice(c).unwrap(), cold.slicer().slice(c).unwrap());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A cache entry written by an older snapshot format (version 1) is a
    /// miss, not an error: the rebuild overwrites it with the current
    /// format, and the next load hits.
    #[test]
    fn snapshot_cache_replaces_an_older_format_entry() {
        let dir = scratch("snapcache-v1");
        let program = write_program(&dir, "p.minic");
        let cache = dir.join("snapcache");
        let mut m = manager(4, None, "snapcache-v1");
        m.set_snapshot_dir(&cache);
        let reg = Registry::new();
        let c = Criterion::Output(0);
        m.load(&spec("a", &program), &reg).unwrap();
        let cold = m.checkout("a", 0).unwrap().slicer().slice(&c).unwrap();
        let entry = std::fs::read_dir(&cache).unwrap().next().unwrap().unwrap().path();
        let current = std::fs::read(&entry).unwrap();
        let mut v1 = current.clone();
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        std::fs::write(&entry, &v1).unwrap();
        assert!(matches!(
            snapshot::load(&entry),
            Err(SnapshotError::UnsupportedVersion(1))
        ));
        assert_eq!(m.unload("a"), Unload::Unloaded);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(
            (reg.counter("snapshot.miss"), reg.counter("snapshot.hit")),
            (2, 0),
            "a version-1 entry is a miss"
        );
        assert_eq!(m.checkout("a", 0).unwrap().slicer().slice(&c).unwrap(), cold);
        assert_eq!(std::fs::read(&entry).unwrap(), current, "the rebuild overwrote it");
        assert_eq!(m.unload("a"), Unload::Unloaded);
        m.load(&spec("a", &program), &reg).unwrap();
        assert_eq!(reg.counter("snapshot.hit"), 1, "the rewritten entry hits");
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A server that loads and unloads for its whole life keeps at most
    /// [`RETIRED_KEPT`] retired sessions one by one: older ones fold into
    /// the [`RETIRED_OLDER`] totals, and no request is lost from the
    /// final report's sums.
    #[test]
    fn retired_sessions_are_bounded_and_their_requests_kept() {
        let dir = scratch("retired-bound");
        let program = write_program(&dir, "p.minic");
        let m = manager(4, None, "retired-bound");
        let reg = Registry::new();
        let names = ["a", "b", "c", "#retired", "a#3"];
        let loads = 3000u64;
        let mut requests = 0;
        for i in 0..loads {
            let name = names[i as usize % names.len()];
            let entry = m.load(&spec(name, &program), &reg).unwrap();
            entry.requests.fetch_add(i % 5, Ordering::Relaxed);
            requests += i % 5;
            if i % 3 != 0 {
                assert_eq!(m.unload(name), Unload::Unloaded);
            }
        }
        let inner = m.locked();
        assert_eq!(inner.retired.len(), RETIRED_KEPT);
        let (live, retired) = (inner.sessions.len(), inner.retired_older.sessions);
        assert_eq!(retired + (RETIRED_KEPT + live) as u64, loads);
        drop(inner);
        let reports = m.final_reports();
        assert_eq!(reports.len(), live + RETIRED_KEPT + 1);
        let summed: u64 = reports.values().map(|r| r.counters["requests"]).sum();
        assert_eq!(summed, requests, "requests survive the folding");
        // `#retired` is also a session name here, so the totals take the
        // next free suffix.
        let older = reports.iter().find(|(_, r)| r.counters.contains_key("sessions"));
        let (key, older) = older.expect("a totals report");
        assert!(key.starts_with("#retired#"), "{key}");
        assert_eq!(older.counters["sessions"], retired);
        std::fs::remove_dir_all(&dir).ok();
    }

    /// Regression: a panic between `begin_load` and `end_load` used to
    /// wedge the name in the loading state forever — refusing unloads,
    /// refusing re-loads, and listing a build that would never land. The
    /// guard clears the registration on unwind.
    #[test]
    fn load_guard_unwedges_a_panicking_build() {
        let m = manager(4, None, "guard");
        assert!(m.begin_load("w", None));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = m.load_guard("w");
            panic!("build blew up");
        }));
        assert!(result.is_err());
        assert!(!m.is_loading("w"), "the guard must clear the wedged registration");
        assert!(m.begin_load("w", None), "the name is loadable again");
        // A disarmed guard must NOT clear a registration: after a
        // successful load the name may already belong to a newer build.
        m.load_guard("w").disarm();
        assert!(m.is_loading("w"), "disarm leaves the registration alone");
        m.end_load("w");
    }

    /// The quarantine state machine: panics below the threshold change
    /// nothing; at the threshold the session is evicted and listed as
    /// quarantined; unload tears the marker down; a re-load resets the
    /// panic record entirely.
    #[test]
    fn repeated_panics_quarantine_until_reload() {
        let dir = scratch("quarantine");
        let program = write_program(&dir, "q.minic");
        let reg = Registry::new();
        let m = manager(4, None, "quarantine");
        m.load(&spec("q", &program), &reg).unwrap();

        assert!(!m.record_panic("q"), "first panic only counts");
        assert!(!m.is_quarantined("q"));
        assert!(m.checkout("q", 0).is_some(), "still serving after one panic");

        assert!(m.record_panic("q"), "second panic quarantines");
        assert!(m.is_quarantined("q"));
        assert!(m.checkout("q", 0).is_none(), "a quarantined session is evicted");
        let listed = m.list();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].quarantined && !listed[0].loading);
        let c = m.server_counters();
        assert_eq!(c.sessions_quarantined.load(Ordering::Relaxed), 1);
        let resident = c.sessions_resident.load(Ordering::SeqCst);
        assert_eq!((resident, c.quarantined_now.load(Ordering::SeqCst)), (0, 1));

        // Re-loading the name is the quarantine exit — and it resets the
        // panic count, so the fresh backend gets a full allowance again.
        m.load(&spec("q", &program), &reg).unwrap();
        assert!(!m.is_quarantined("q"));
        assert!(!m.record_panic("q"), "the panic record restarted from zero");

        // Unload is the other exit: quarantine again, then tear it down.
        assert!(m.record_panic("q"), "second panic of the new backend");
        assert_eq!(m.unload("q"), Unload::Unloaded, "a quarantined name can be unloaded");
        assert!(!m.is_quarantined("q"));
        assert!(m.list().is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A panic attributed to a name that was never (or is no longer)
    /// resident still quarantines the name, so clients get the typed
    /// error instead of `unknown_session` roulette.
    #[test]
    fn quarantine_works_without_a_resident_session() {
        let m = manager(4, None, "ghost");
        assert!(!m.record_panic("ghost"));
        assert!(m.record_panic("ghost"));
        assert!(m.is_quarantined("ghost"));
        let listed = m.list();
        assert_eq!(listed.len(), 1);
        assert!(listed[0].quarantined);
        assert_eq!(listed[0].requests, 0);
    }
}
