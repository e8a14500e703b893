//! The persistent slice service behind `dynslice serve`.
//!
//! A one-shot `dynslice slice` run pays the dominant cost of dynamic
//! slicing — trace capture and dependence-graph construction — for every
//! single query. The service inverts that: backends are built **once**
//! and then answer an open-ended stream of slice requests over the
//! newline-delimited JSON protocol of [`crate::protocol`], amortizing the
//! build the same way the batch engine does but across an interactive
//! session instead of a fixed query list.
//!
//! The server holds one **default** session (the trace it was launched
//! with — requests without a `session` field go there, byte-compatible
//! with the single-trace protocol) plus a [`SessionManager`] of named
//! sessions that clients `load`/`unload` at runtime (see
//! [`crate::sessions`] for the residency policy). The default is an
//! ordinary [`SessionEntry`] held outside the manager's table, so every
//! slice takes one path: result cache, backend, counters.
//!
//! Architecture:
//!
//! * **Acceptors** (one detached thread per listener — Unix socket and/or
//!   TCP, both may listen concurrently) admit connections up to the
//!   `--max-connections` cap; a connection over the cap is answered with
//!   a typed `busy` error and closed, so overload is explicit instead of
//!   an unbounded thread pile-up.
//! * **Readers** (one detached thread per connection) parse request lines
//!   and push jobs onto a **bounded queue**. A full queue rejects the
//!   request immediately (`rejected` error) — backpressure is explicit,
//!   never an unbounded buffer. Request lines are length-capped on every
//!   transport (a too-long line is a typed `oversized` error, the rest of
//!   the line is discarded in bounded memory, and the connection keeps
//!   serving). Socket reads block until a line arrives: with
//!   `--idle-timeout-ms` every read, even one partway through a line, is
//!   bounded by the time left until the idle deadline (no complete line
//!   for that long reaps the connection), and at shutdown the supervisor
//!   shuts the read side of every live connection, so no reader waits on
//!   a timer tick.
//! * **Handshake**: TCP connections must open with
//!   `{"op":"hello","proto":1}` — the server answers with its supported
//!   protocol range and identity; any other first line is a typed
//!   `handshake_required` error and the connection closes. Unix-socket
//!   and stdio streams accept `hello` but do not require it, keeping the
//!   pre-TCP wire format byte-identical for old clients.
//! * **Workers** (scoped threads, so they can borrow the sessions) pop
//!   jobs, consult the per-criterion LRU cache of the addressed session, run
//!   [`Slicer::slice_with_stats`], and write the response to the
//!   connection the request came from. Responses may be written out of
//!   order; the `id` field correlates. With a single worker a scripted
//!   request stream is answered strictly in order.
//! * **Loaders**: session builds are the slow path — minutes of trace
//!   capture and graph construction — so a `load` without `wait` is
//!   acked immediately (`loading`) and handed to a separate loader pool.
//!   Slices against *resident* sessions never queue behind a build; a
//!   slice against a still-loading session answers a typed `loading`
//!   error, or blocks until the build lands when the request says
//!   `"wait":true`. A `load` with `"wait":true` keeps the original
//!   synchronous contract (build inline, answer `loaded`).
//! * **Deadlines**: with `--timeout-ms`, each request gets a deadline
//!   stamped at enqueue time. The deadline is checked when the job is
//!   dequeued, after the slice is computed, and once more immediately
//!   before the reply is written — a response that went stale anywhere in
//!   between answers `timeout`.
//! * **Errors are isolated per request**: a malformed line, unknown
//!   criterion, unknown session, rejected load, truncated LP slice, or
//!   I/O failure fails that request only — the server keeps serving.
//! * **Supervisor**: blocks on one end of a socket pair until something
//!   writes a byte to the other — the SIGTERM handler (one
//!   async-signal-safe `write(2)`), the `shutdown` op, or the last reader
//!   to exit. Nothing in the server polls on a timer.
//! * **Shutdown** is graceful on stdin EOF, SIGTERM, or a protocol
//!   `{"op":"shutdown"}`: the supervisor dials each listener once so its
//!   blocked `accept` returns (the acceptor drops that connection
//!   uncounted and exits), shuts the read side of every
//!   live connection so its reader wakes at once, closes the queue, and
//!   lets already-accepted jobs drain. TCP connections get a final
//!   `shutting_down` error line before the close (instead of a silently
//!   dropped socket); [`serve`] returns only after the readers it woke
//!   have said their farewells, with the run's [`ServerCounters`] written
//!   into the metrics registry.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::os::unix::fs::FileTypeExt;
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicI32, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use dynslice_obs::{phases, Registry};
use dynslice_slicing::{Criterion, SliceError, Slicer as _};

use crate::criteria::{parse_criterion, parse_input_tape};
use crate::protocol::{
    ErrorKind, Op, Request, Response, ResponseBody, PROTO_MAX, PROTO_MIN,
};
use crate::sessions::{LoadError, SessionEntry, SessionLease, SessionManager, SessionSpec};

/// The identity string a `hello` reply carries.
fn server_identity() -> String {
    format!("dynslice/{}", env!("CARGO_PKG_VERSION"))
}

/// How long [`serve`] waits, after the queue drains, for the readers it
/// woke to send their farewells and exit. They normally take
/// microseconds; the cap only matters for a reader stuck writing to a
/// client that stopped reading, which is then left behind.
const READER_DRAIN_LIMIT: Duration = Duration::from_secs(2);

/// How the server talks to its clients.
#[derive(Debug)]
pub enum Transport {
    /// Requests on stdin, responses on stdout; the session ends at EOF.
    Stdio,
    /// A Unix domain socket accepting any number of concurrent
    /// connections; the session ends only on SIGTERM or a `shutdown`
    /// request. The socket file is removed when the server exits.
    Unix(UnixListener, PathBuf),
    /// A TCP listener. Connections must open with the versioned `hello`
    /// handshake; on graceful shutdown each live connection gets a final
    /// `shutting_down` error line before the close.
    Tcp(TcpListener),
}

impl Transport {
    /// Binds a Unix-socket transport at `path`.
    ///
    /// A leftover socket file from a crashed server is replaced — but
    /// only after probing it: if anything is not a socket, or a connect
    /// succeeds (another server is alive and listening), the bind is
    /// refused instead of silently clobbering it.
    ///
    /// `bind` creates the socket file before the socket listens, so the
    /// listener is bound under a temporary name in the same directory and
    /// renamed to `path` once it listens: a client that dials as soon as
    /// `path` exists is never refused.
    ///
    /// # Errors
    /// `AddrInUse` when a live server holds the socket, `InvalidInput`
    /// when the path exists but is not a socket, plus ordinary bind
    /// failures.
    pub fn unix(path: PathBuf) -> io::Result<Self> {
        match std::fs::symlink_metadata(&path) {
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
            Ok(meta) => {
                if !meta.file_type().is_socket() {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidInput,
                        format!(
                            "refusing to replace `{}`: it exists and is not a socket",
                            path.display()
                        ),
                    ));
                }
                match UnixStream::connect(&path) {
                    Ok(_) => {
                        return Err(io::Error::new(
                            io::ErrorKind::AddrInUse,
                            format!(
                                "socket `{}` has a live server listening on it",
                                path.display()
                            ),
                        ))
                    }
                    // Nobody accepts on it: a stale leftover, which the
                    // rename below replaces.
                    Err(e) if e.kind() == io::ErrorKind::ConnectionRefused => {}
                    Err(e) => return Err(e),
                }
            }
        }
        let mut staging = path.clone().into_os_string();
        staging.push(format!(".{}.tmp", std::process::id()));
        let staging = PathBuf::from(staging);
        let _ = std::fs::remove_file(&staging);
        let listener = UnixListener::bind(&staging)?;
        if let Err(e) = std::fs::rename(&staging, &path) {
            let _ = std::fs::remove_file(&staging);
            return Err(e);
        }
        Ok(Transport::Unix(listener, path))
    }

    /// Binds a TCP transport at `addr` (`HOST:PORT`; port `0` asks the
    /// OS for an ephemeral port — read it back with
    /// [`Transport::local_addr`]).
    ///
    /// # Errors
    /// Ordinary bind failures (`AddrInUse`, unresolvable host, …).
    pub fn tcp(addr: &str) -> io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Transport::Tcp(listener))
    }

    /// The bound address of a TCP transport (`None` for stdio and Unix
    /// sockets). This is how callers learn an ephemeral port.
    pub fn local_addr(&self) -> Option<std::net::SocketAddr> {
        match self {
            Transport::Tcp(listener) => listener.local_addr().ok(),
            _ => None,
        }
    }
}

/// Tunables for one serve session.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Worker threads answering queries concurrently.
    pub workers: usize,
    /// Loader threads running asynchronous session builds (a `load`
    /// without `wait`), so builds never stall the query workers.
    pub loaders: usize,
    /// Per-request deadline, measured from enqueue; `None` disables.
    pub timeout: Option<Duration>,
    /// Bounded queue depth; a full queue rejects new requests.
    pub queue_depth: usize,
    /// Most socket connections served at once; one over the cap is
    /// answered with a typed `busy` error and closed. `0` disables the
    /// cap.
    pub max_connections: usize,
    /// Reap a socket connection after this much time without a complete
    /// request line; `None` disables reaping.
    pub idle_timeout: Option<Duration>,
    /// Hard cap on one request line's length in bytes (all transports);
    /// a longer line is a typed `oversized` error and the overflow is
    /// discarded in bounded memory.
    pub max_line_bytes: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            workers: 4,
            loaders: 1,
            timeout: None,
            queue_depth: 64,
            max_connections: 64,
            idle_timeout: None,
            max_line_bytes: 64 * 1024,
        }
    }
}

/// How one [`ServerCounters`] cell lands in the run report.
#[derive(Clone, Copy)]
enum Kind {
    /// A running total (`counter_add`).
    Counter,
    /// A peak or a level (`gauge_set`).
    Gauge,
}

/// The server's counter table: every `server.*`/`net.*` figure of a serve
/// run, declared once as a cell and once as a report row
/// ([`Self::record_metrics`]). Writers bump the cells in place; `health`,
/// the CLI's summary lines and the run report all read the same cells.
///
/// The [`SessionManager`] owns the table (its lifecycle and residency
/// counts are written under its lock); [`serve`] and the per-connection
/// sinks and line readers hold clones of the same `Arc`. The `retries`
/// count lives in `dynslice-faults`, which notes each retry.
#[derive(Debug, Default)]
pub struct ServerCounters {
    /// Request lines received (including malformed ones).
    pub requests: AtomicU64,
    /// Successful responses (slices and load/unload/list acks).
    pub responses_ok: AtomicU64,
    /// Slice answers served from an LRU result cache.
    pub cache_hits: AtomicU64,
    /// Slice answers that had to be computed.
    pub cache_misses: AtomicU64,
    /// Requests that missed their deadline.
    pub timeouts: AtomicU64,
    /// Requests bounced off the full (or closing) queue.
    pub rejected: AtomicU64,
    /// Lines that failed to parse or carried a malformed criterion.
    pub bad_requests: AtomicU64,
    /// Requests that failed server-side (unknown criterion or session,
    /// truncation, rejected load, I/O, a caught panic) and failed
    /// background builds.
    pub failed: AtomicU64,
    /// Socket connections admitted to service (0 for stdio).
    pub connections: AtomicU64,
    /// Connections bounced off the `--max-connections` cap with a typed
    /// `busy` error.
    pub rejected_busy: AtomicU64,
    /// Successful `hello` handshakes.
    pub handshakes: AtomicU64,
    /// Request lines discarded for exceeding the length cap.
    pub oversized: AtomicU64,
    /// Protocol bytes read from clients, all transports.
    pub read_bytes: AtomicU64,
    /// Protocol bytes written to clients, all transports.
    pub write_bytes: AtomicU64,
    /// Sessions admitted by `load` (preloads included).
    pub sessions_loaded: AtomicU64,
    /// Idle sessions evicted under the memory budget or session cap.
    pub sessions_evicted: AtomicU64,
    /// Sessions dropped by `unload` (same-name replacement included).
    pub sessions_unloaded: AtomicU64,
    /// Loads refused because eviction could not make room.
    pub sessions_rejected: AtomicU64,
    /// Sessions quarantined after repeated caught panics.
    pub sessions_quarantined: AtomicU64,
    /// Panics caught by the worker and loader pools (each one is a single
    /// failed request or build, never a dead server).
    pub panics: AtomicU64,
    /// Most connections ever open at once.
    pub connections_peak: AtomicU64,
    /// Most jobs ever being answered at once.
    pub in_flight_peak: AtomicU64,
    /// Deepest the request queue ever got.
    pub queue_peak: AtomicU64,
    /// Deepest the background-load queue ever got.
    pub load_queue_peak: AtomicU64,
    /// Resident named sessions now.
    pub sessions_resident: AtomicU64,
    /// Bytes the memory budget charges the resident sessions now.
    pub sessions_resident_bytes: AtomicU64,
    /// Query worker threads.
    pub workers: AtomicU64,
    /// Loader threads.
    pub loaders: AtomicU64,
    /// Named sessions with an asynchronous build in flight now (a
    /// replacement build whose old session still serves is not counted,
    /// matching `list`). Read by `health`; not reported.
    pub(crate) sessions_loading: AtomicU64,
    /// Names quarantined now. Read by `health`; not reported.
    pub(crate) quarantined_now: AtomicU64,
}

impl ServerCounters {
    /// The report rows: each reported cell with its key and kind.
    fn rows(&self) -> [(&'static str, Kind, &AtomicU64); 28] {
        use Kind::{Counter, Gauge};
        [
            ("server.requests", Counter, &self.requests),
            ("server.responses_ok", Counter, &self.responses_ok),
            ("server.cache_hits", Counter, &self.cache_hits),
            ("server.cache_misses", Counter, &self.cache_misses),
            ("server.timeouts", Counter, &self.timeouts),
            ("server.rejected", Counter, &self.rejected),
            ("server.bad_requests", Counter, &self.bad_requests),
            ("server.failed", Counter, &self.failed),
            ("server.connections", Counter, &self.connections),
            ("server.rejected_busy", Counter, &self.rejected_busy),
            ("server.handshakes", Counter, &self.handshakes),
            ("server.oversized", Counter, &self.oversized),
            ("net.read_bytes", Counter, &self.read_bytes),
            ("net.write_bytes", Counter, &self.write_bytes),
            ("server.sessions_loaded", Counter, &self.sessions_loaded),
            ("server.sessions_evicted", Counter, &self.sessions_evicted),
            ("server.sessions_unloaded", Counter, &self.sessions_unloaded),
            ("server.sessions_rejected", Counter, &self.sessions_rejected),
            ("server.sessions_quarantined", Counter, &self.sessions_quarantined),
            ("server.panics", Counter, &self.panics),
            ("server.connections_peak", Gauge, &self.connections_peak),
            ("server.in_flight_peak", Gauge, &self.in_flight_peak),
            ("server.queue_peak", Gauge, &self.queue_peak),
            ("server.load_queue_peak", Gauge, &self.load_queue_peak),
            ("server.sessions_resident", Gauge, &self.sessions_resident),
            ("server.sessions_resident_bytes", Gauge, &self.sessions_resident_bytes),
            ("server.workers", Gauge, &self.workers),
            ("server.loaders", Gauge, &self.loaders),
        ]
    }

    /// Emits every row into `reg`, plus `server.retries` from the fault
    /// crate's retry count.
    pub fn record_metrics(&self, reg: &Registry) {
        for (key, kind, cell) in self.rows() {
            let value = cell.load(Ordering::Relaxed);
            match kind {
                Kind::Counter => reg.counter_add(key, value),
                Kind::Gauge => reg.gauge_set(key, value as f64),
            }
        }
        reg.counter_add("server.retries", dynslice_faults::retries());
    }
}

/// A response sink shared by every job from one connection.
struct Sink {
    out: Mutex<Box<dyn Write + Send>>,
    /// Counts the bytes written (`net.write_bytes`).
    counters: Arc<ServerCounters>,
}

impl Sink {
    fn new(out: Box<dyn Write + Send>, counters: &Arc<ServerCounters>) -> Arc<Self> {
        Arc::new(Sink { out: Mutex::new(out), counters: Arc::clone(counters) })
    }

    /// Writes one response line. A dead connection is not an error — the
    /// client hung up, and its remaining responses go nowhere. A poisoned
    /// lock is recovered, not propagated: the holder that panicked at
    /// worst wrote a partial line to this one connection, and refusing to
    /// ever write again would silently kill every later response on it.
    fn send(&self, response: &Response) {
        let line = response.to_json();
        self.counters.write_bytes.fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
        let mut out = self.out.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    }
}

/// What an accepted request asks a worker to do.
enum JobKind {
    /// Slice `criterion` against the named session (`None` = the default
    /// trace). `wait` opts into blocking on a session that is still
    /// loading instead of answering a `loading` error.
    Slice { criterion: Criterion, session: Option<String>, wait: bool },
    /// Build and admit a session; `wait` selects the synchronous contract
    /// (build inline, answer `loaded`) over the asynchronous default
    /// (ack `loading`, build on the loader pool).
    Load { spec: SessionSpec, wait: bool },
    /// Drop a session.
    Unload(String),
    /// Enumerate resident sessions.
    List,
}

/// One unit of work: an accepted request bound to its reply sink.
struct Job {
    id: u64,
    kind: JobKind,
    deadline: Option<Instant>,
    sink: Arc<Sink>,
    /// The connection the request arrived on (0 for stdio), threaded to
    /// the session manager's per-connection lease accounting.
    conn: u64,
}

/// A session build queued for the loader pool. No sink: the `loading`
/// ack already went out, and a failed build surfaces through `list`
/// (the pending entry disappears) and the `failed` counter.
struct LoadJob {
    spec: SessionSpec,
}

struct QueueInner<T> {
    jobs: std::collections::VecDeque<T>,
    closed: bool,
}

/// Bounded MPMC job queue; `push` rejects instead of blocking.
struct Queue<T> {
    inner: Mutex<QueueInner<T>>,
    available: Condvar,
    depth: usize,
}

impl<T> Queue<T> {
    fn new(depth: usize) -> Self {
        Queue {
            inner: Mutex::new(QueueInner { jobs: std::collections::VecDeque::new(), closed: false }),
            available: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// The queue lock, recovering from poisoning: nothing under it runs
    /// user or backend code, so the `VecDeque` is structurally sound
    /// whatever happened to the holder — and refusing the lock forever
    /// would wedge every worker and reader at once.
    fn lock(&self) -> std::sync::MutexGuard<'_, QueueInner<T>> {
        self.inner.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Enqueues `job`, or hands it back if the queue is full or closed.
    fn push(&self, job: T, peak: &AtomicU64) -> Result<(), T> {
        let mut inner = self.lock();
        if inner.closed || inner.jobs.len() >= self.depth {
            return Err(job);
        }
        inner.jobs.push_back(job);
        peak.fetch_max(inner.jobs.len() as u64, Ordering::Relaxed);
        drop(inner);
        self.available.notify_one();
        Ok(())
    }

    /// Blocks for the next job; `None` once the queue is closed **and**
    /// drained, so accepted work still completes during shutdown.
    fn pop(&self) -> Option<T> {
        let mut inner = self.lock();
        loop {
            if let Some(job) = inner.jobs.pop_front() {
                return Some(job);
            }
            if inner.closed {
                return None;
            }
            inner = self
                .available
                .wait(inner)
                .unwrap_or_else(std::sync::PoisonError::into_inner);
        }
    }

    fn close(&self) {
        self.lock().closed = true;
        self.available.notify_all();
    }

    /// Whether [`Queue::close`] has run — distinguishes a push bounced by
    /// backpressure (`rejected`) from one bounced by the shutdown drain
    /// (`shutting_down`).
    fn is_closed(&self) -> bool {
        self.lock().closed
    }

    /// Jobs currently waiting (excludes jobs already being answered) —
    /// the `health` probe's queue-depth figure.
    fn len(&self) -> u64 {
        self.lock().jobs.len() as u64
    }
}

/// State shared between readers, workers, and the supervisor.
struct Shared {
    queue: Queue<Job>,
    /// Background session builds, drained by the loader pool so they
    /// never occupy a query worker.
    loads: Queue<LoadJob>,
    timeout: Option<Duration>,
    max_connections: usize,
    idle_timeout: Option<Duration>,
    max_line_bytes: usize,
    shutdown: AtomicBool,
    readers_active: AtomicU64,
    open_connections: AtomicU64,
    in_flight: AtomicU64,
    /// The session manager's counter table. Detached readers answer
    /// `health` from it, since they cannot borrow the scoped manager.
    counters: Arc<ServerCounters>,
    /// The supervisor's doorbell.
    waker: Waker,
    /// Every live socket connection by id — a handle on the same socket
    /// its reader blocks on, so shutdown can end that read.
    live: Mutex<HashMap<u64, Conn>>,
    /// Signalled when `live` empties.
    live_drained: Condvar,
}

impl Shared {
    fn new(config: &ServeConfig, counters: Arc<ServerCounters>) -> io::Result<Self> {
        Ok(Shared {
            queue: Queue::new(config.queue_depth),
            loads: Queue::new(config.queue_depth),
            timeout: config.timeout,
            max_connections: config.max_connections,
            idle_timeout: config.idle_timeout,
            max_line_bytes: config.max_line_bytes.max(1),
            shutdown: AtomicBool::new(false),
            readers_active: AtomicU64::new(0),
            open_connections: AtomicU64::new(0),
            in_flight: AtomicU64::new(0),
            counters,
            waker: Waker::new()?,
            live: Mutex::new(HashMap::new()),
            live_drained: Condvar::new(),
        })
    }

    /// Starts a graceful shutdown and wakes the supervisor to run it.
    fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.waker.wake();
    }

    /// Counts one reader (a connection, the stdio stream, or an acceptor)
    /// out; the last one wakes the supervisor, since every transport has
    /// then ended.
    fn reader_exit(&self) {
        if self.readers_active.fetch_sub(1, Ordering::SeqCst) == 1 {
            self.waker.wake();
        }
    }

    /// The live-connection registry lock, recovering from poisoning:
    /// nothing under it can panic mid-update of the map.
    fn live(&self) -> std::sync::MutexGuard<'_, HashMap<u64, Conn>> {
        self.live.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Registers a live connection. The shutdown flag is read under the
    /// registry lock, which [`Self::wake_readers`] also takes after
    /// setting it: a connection registered after that sweep ends its own
    /// read side here, so no reader is ever left blocked.
    fn register(&self, id: u64, conn: Conn) {
        let mut live = self.live();
        if self.shutdown.load(Ordering::SeqCst) {
            conn.shutdown_read();
        }
        live.insert(id, conn);
    }

    /// Drops a connection's registry entry as its reader exits.
    fn unregister(&self, id: u64) {
        let mut live = self.live();
        live.remove(&id);
        if live.is_empty() {
            self.live_drained.notify_all();
        }
    }

    /// Shuts the read side of every live connection: each blocked reader
    /// sees EOF at once, notices the shutdown, and says its farewell.
    fn wake_readers(&self) {
        for conn in self.live().values() {
            conn.shutdown_read();
        }
    }

    /// Waits until every connection reader has exited, or `limit` passes.
    fn await_readers(&self, limit: Duration) {
        let live = self.live();
        let _ = self.live_drained.wait_timeout_while(live, limit, |live| !live.is_empty());
    }

    /// Builds the `health` reply: liveness plus the coarse counts a
    /// probe needs to decide between `ok` and `degraded`. Reads only
    /// counter cells and the queue length, so it answers even when every
    /// worker is wedged.
    fn health(&self, id: u64) -> Response {
        let c = &*self.counters;
        let panics = c.panics.load(Ordering::Relaxed);
        let quarantined = c.quarantined_now.load(Ordering::SeqCst);
        let status = if panics > 0 || quarantined > 0 { "degraded" } else { "ok" };
        Response {
            id,
            body: ResponseBody::Health {
                status: status.to_string(),
                sessions: c.sessions_resident.load(Ordering::SeqCst),
                loading: c.sessions_loading.load(Ordering::SeqCst),
                quarantined,
                queue_depth: self.queue.len(),
                panics,
                retries: dynslice_faults::retries(),
            },
        }
    }

    fn error(&self, id: u64, kind: ErrorKind, message: impl Into<String>) -> Response {
        let c = &*self.counters;
        let cell = match kind {
            ErrorKind::Timeout => &c.timeouts,
            // The drain answers like a rejection for summary purposes,
            // with its own protocol tag.
            ErrorKind::Rejected | ErrorKind::ShuttingDown => &c.rejected,
            ErrorKind::BadRequest => &c.bad_requests,
            ErrorKind::Busy => &c.rejected_busy,
            ErrorKind::Oversized => &c.oversized,
            _ => &c.failed,
        };
        cell.fetch_add(1, Ordering::Relaxed);
        Response { id, body: ResponseBody::Error { kind, message: message.into() } }
    }

    /// Counts one successful response.
    fn ok(&self) {
        self.counters.responses_ok.fetch_add(1, Ordering::Relaxed);
    }
}

/// The supervisor's doorbell: a socket pair whose read end the
/// supervisor blocks on and whose write end anyone may ring — threads
/// through [`Waker::wake`], the SIGTERM handler through the raw fd in
/// [`WAKE_FD`]. A ring before the supervisor blocks stays buffered, so no
/// wake is lost between its checks and its read.
struct Waker {
    rx: UnixStream,
    tx: UnixStream,
}

impl Waker {
    fn new() -> io::Result<Self> {
        let (rx, tx) = UnixStream::pair()?;
        // A full buffer already holds a pending wake, so ringing must
        // never block — least of all inside the signal handler.
        tx.set_nonblocking(true)?;
        Ok(Waker { rx, tx })
    }

    fn wake(&self) {
        let _ = (&self.tx).write(&[1]);
    }

    /// Blocks until at least one ring, consuming any that piled up.
    fn wait(&self) {
        let mut rings = [0u8; 64];
        loop {
            match (&self.rx).read(&mut rings) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                _ => return,
            }
        }
    }
}

/// Set by the raw SIGTERM handler; checked by the supervisor each time it
/// wakes.
static SIGTERM_RECEIVED: AtomicBool = AtomicBool::new(false);

/// The running server's [`Waker`] write end (`-1` when none): the only
/// wake the SIGTERM handler can ring. [`serve`] sets and clears it.
static WAKE_FD: AtomicI32 = AtomicI32::new(-1);

extern "C" fn on_sigterm(_signum: i32) {
    extern "C" {
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }
    SIGTERM_RECEIVED.store(true, Ordering::SeqCst);
    let fd = WAKE_FD.load(Ordering::SeqCst);
    if fd >= 0 {
        // SAFETY: `write(2)` is async-signal-safe and reads one byte from
        // a live one-byte array; no Rust object is touched. The fd is the
        // running server's non-blocking write end, so the call can fail
        // but never block. (`serve` clears the fd before the pair closes;
        // a signal landing in that same instant can at worst write one
        // byte to a reused descriptor number, never into memory.)
        unsafe {
            write(fd, [1u8].as_ptr(), 1);
        }
    }
}

/// Installs the SIGTERM flag handler via the C library's `signal(2)`,
/// avoiding a dependency on a bindings crate for one syscall.
fn install_sigterm_handler() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    unsafe {
        signal(SIGTERM, on_sigterm);
    }
}

/// Builds the worker-side job for one well-formed request, or the error
/// to answer inline.
fn plan(request: Request, shared: &Shared) -> Result<JobKind, Response> {
    match request.op {
        Op::Slice => {
            let criterion = parse_criterion(request.criterion.as_deref().unwrap_or_default())
                .map_err(|msg| shared.error(request.id, ErrorKind::BadRequest, msg))?;
            Ok(JobKind::Slice { criterion, session: request.session, wait: request.wait })
        }
        Op::Load => {
            let build = || -> Result<SessionSpec, String> {
                Ok(SessionSpec {
                    // The protocol already refuses a `load` without a
                    // session name, but a typed error beats trusting a
                    // parser invariant from another module forever.
                    name: request
                        .session
                        .clone()
                        .ok_or_else(|| "load requires a session name".to_string())?,
                    // The protocol guarantees `program` or `snapshot`; an
                    // empty program path is never read when a snapshot is
                    // set.
                    program: request.program.as_deref().map(PathBuf::from).unwrap_or_default(),
                    input: parse_input_tape(request.input.as_deref().unwrap_or_default())?,
                    algo: request.algo.as_deref().map(str::parse).transpose()?,
                    snapshot: request.snapshot.as_deref().map(PathBuf::from),
                })
            };
            build()
                .map(|spec| JobKind::Load { spec, wait: request.wait })
                .map_err(|msg| shared.error(request.id, ErrorKind::BadRequest, msg))
        }
        Op::Unload => match request.session {
            Some(name) => Ok(JobKind::Unload(name)),
            // Same defense as `load`: the parser refuses this today.
            None => Err(shared.error(
                request.id,
                ErrorKind::BadRequest,
                "unload requires a session name",
            )),
        },
        Op::List => Ok(JobKind::List),
        Op::Hello => unreachable!("hello is handled inline by the reader"),
        Op::Health => unreachable!("health is handled inline by the reader"),
        Op::Shutdown => unreachable!("shutdown is handled inline by the reader"),
    }
}

/// One read attempt's outcome (see [`LineReader`]).
enum LineRead {
    /// A complete request line (newline stripped).
    Line(String),
    /// The line under construction blew the length cap; it has been
    /// dropped and its remaining bytes will be discarded as they arrive.
    Oversized,
    /// The idle deadline passed with no complete line.
    Idle,
    /// The peer closed the connection (or the read failed terminally).
    Eof,
}

/// A length-capped line reader over a raw byte stream.
///
/// This replaces `BufRead::read_line`, whose buffer grows without bound:
/// one client holding a newline hostage could OOM the server. Here at
/// most `max` bytes of one line are ever retained — when a line exceeds
/// the cap it is reported [`LineRead::Oversized`] once and the overflow
/// is discarded chunk by chunk until its newline arrives, after which the
/// stream is back in sync.
///
/// With an idle limit, every read waits only as long as the limit allows
/// since the last line handed out, so a client that trickles bytes but
/// never finishes a line is reaped as surely as a silent one; the
/// deadline passing surfaces as [`LineRead::Idle`].
struct LineReader<'a, R: Read> {
    inner: R,
    pending: Vec<u8>,
    chunk: [u8; 4096],
    max: usize,
    discarding: bool,
    /// Counts the bytes read (`net.read_bytes`).
    counters: Arc<ServerCounters>,
    /// The idle limit and the socket whose read timeout enforces it.
    idle: Option<(&'a Conn, Duration)>,
    /// When the idle clock last restarted: construction or the last line.
    since: Instant,
}

impl<'a, R: Read> LineReader<'a, R> {
    fn new(
        inner: R,
        max: usize,
        counters: Arc<ServerCounters>,
        idle: Option<(&'a Conn, Duration)>,
    ) -> Self {
        LineReader {
            inner,
            pending: Vec::new(),
            chunk: [0; 4096],
            max,
            discarding: false,
            counters,
            idle,
            since: Instant::now(),
        }
    }

    fn next_line(&mut self) -> LineRead {
        let line = self.scan();
        if !matches!(line, LineRead::Idle | LineRead::Eof) {
            self.since = Instant::now();
        }
        line
    }

    fn scan(&mut self) -> LineRead {
        loop {
            let newline = self.pending.iter().position(|b| *b == b'\n');
            if self.discarding {
                match newline {
                    Some(pos) => {
                        // The hostile line's tail ends here; whatever
                        // followed it is the start of the next line.
                        self.pending.drain(..=pos);
                        self.discarding = false;
                        continue;
                    }
                    None => self.pending.clear(),
                }
            } else if let Some(pos) = newline {
                if pos > self.max {
                    // The whole line arrived in one gulp but is still
                    // over the cap.
                    self.pending.drain(..=pos);
                    return LineRead::Oversized;
                }
                let mut line: Vec<u8> = self.pending.drain(..=pos).collect();
                line.pop();
                if line.last() == Some(&b'\r') {
                    line.pop();
                }
                return LineRead::Line(String::from_utf8_lossy(&line).into_owned());
            } else if self.pending.len() > self.max {
                self.pending.clear();
                self.discarding = true;
                return LineRead::Oversized;
            }
            if let Some((conn, limit)) = self.idle {
                let left = limit.saturating_sub(self.since.elapsed());
                if left.is_zero() || conn.set_read_timeout(Some(left)).is_err() {
                    return LineRead::Idle;
                }
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => return LineRead::Eof,
                Ok(n) => {
                    self.counters.read_bytes.fetch_add(n as u64, Ordering::Relaxed);
                    self.pending.extend_from_slice(&self.chunk[..n]);
                }
                // A timed-out read loops back to the deadline check.
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock
                            | io::ErrorKind::TimedOut
                            | io::ErrorKind::Interrupted
                    ) => {}
                Err(_) => return LineRead::Eof,
            }
        }
    }
}

/// An accepted socket of either family.
enum Conn {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl Conn {
    fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
        })
    }

    /// Bounds each following read; `None` blocks until data or EOF.
    fn set_read_timeout(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.set_read_timeout(timeout),
            Conn::Tcp(s) => s.set_read_timeout(timeout),
        }
    }

    /// Ends the socket's read side: a reader blocked on it (through any
    /// handle) sees EOF at once. Replies can still be written.
    fn shutdown_read(&self) {
        let _ = match self {
            Conn::Unix(s) => s.shutdown(Shutdown::Read),
            Conn::Tcp(s) => s.shutdown(Shutdown::Read),
        };
    }
}

impl Read for &Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match *self {
            Conn::Unix(s) => (&mut &*s).read(buf),
            Conn::Tcp(s) => (&mut &*s).read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Unix(s) => s.write(buf),
            Conn::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Unix(s) => s.flush(),
            Conn::Tcp(s) => s.flush(),
        }
    }
}

/// Per-connection policy knobs (what distinguishes a TCP connection from
/// a Unix-socket one from the stdio stream).
struct ConnPolicy {
    /// The first line must be a valid `hello` (TCP).
    require_hello: bool,
    /// On graceful shutdown, send a final `shutting_down` error line
    /// before closing instead of silently dropping the socket (TCP).
    farewell: bool,
    /// Connection id for lease accounting (0 = stdio).
    conn: u64,
}

/// Parses request lines from `input`, answering protocol errors inline
/// and queueing well-formed jobs. Returns at EOF, on a read error, when
/// the connection idles out, or once shutdown is underway (the supervisor
/// ends the read side of every live connection, which surfaces as EOF).
///
/// `idle` reaps the connection after that long without a complete line,
/// enforced through the socket's read timeout (socket transports; stdio
/// passes `None` and blocks forever as it always did).
fn serve_connection(
    input: impl Read,
    idle: Option<(&Conn, Duration)>,
    sink: &Arc<Sink>,
    shared: &Shared,
    policy: &ConnPolicy,
) {
    let mut lines =
        LineReader::new(input, shared.max_line_bytes, Arc::clone(&shared.counters), idle);
    let mut handshaken = !policy.require_hello;
    // Set when this very connection sent the `shutdown` op: it already
    // got the ack, so it does not also get the farewell.
    let mut own_shutdown = false;
    loop {
        match lines.next_line() {
            LineRead::Eof | LineRead::Idle => {
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                return;
            }
            LineRead::Oversized => {
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                sink.send(&shared.error(
                    0,
                    ErrorKind::Oversized,
                    format!("request line exceeds {} bytes", shared.max_line_bytes),
                ));
            }
            LineRead::Line(line) => {
                if line.trim().is_empty() {
                    continue;
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                shared.counters.requests.fetch_add(1, Ordering::Relaxed);
                let request = match Request::parse(&line) {
                    Ok(r) => r,
                    Err(msg) => {
                        if !handshaken {
                            sink.send(&shared.error(
                                0,
                                ErrorKind::HandshakeRequired,
                                "connection must open with {\"op\":\"hello\",\"proto\":1}",
                            ));
                            return;
                        }
                        sink.send(&shared.error(0, ErrorKind::BadRequest, msg));
                        continue;
                    }
                };
                if request.op == Op::Hello {
                    // Provably present: `Request::parse` rejects a hello
                    // without `proto` (pinned by the protocol tests), so
                    // this expect cannot fire on any parseable line.
                    let proto = request.proto.expect("protocol validates hello");
                    if !(PROTO_MIN..=PROTO_MAX).contains(&proto) {
                        sink.send(&shared.error(
                            request.id,
                            ErrorKind::UnsupportedProto,
                            format!(
                                "protocol revision {proto} unsupported (server speaks \
                                 {PROTO_MIN}..={PROTO_MAX})"
                            ),
                        ));
                        return;
                    }
                    handshaken = true;
                    shared.counters.handshakes.fetch_add(1, Ordering::Relaxed);
                    shared.ok();
                    sink.send(&Response {
                        id: request.id,
                        body: ResponseBody::Hello {
                            proto_min: PROTO_MIN,
                            proto_max: PROTO_MAX,
                            server: server_identity(),
                        },
                    });
                    continue;
                }
                if request.op == Op::Health {
                    // Health is answered inline by the reader — before the
                    // handshake gate and without touching the worker queue,
                    // so a probe gets an answer even from a server whose
                    // pool is saturated or wedged.
                    shared.ok();
                    sink.send(&shared.health(request.id));
                    continue;
                }
                if !handshaken {
                    sink.send(&shared.error(
                        request.id,
                        ErrorKind::HandshakeRequired,
                        "connection must open with {\"op\":\"hello\",\"proto\":1}",
                    ));
                    return;
                }
                if request.op == Op::Shutdown {
                    sink.send(&Response { id: request.id, body: ResponseBody::ShutdownAck });
                    shared.request_shutdown();
                    own_shutdown = true;
                    break;
                }
                let id = request.id;
                let kind = match plan(request, shared) {
                    Ok(kind) => kind,
                    Err(response) => {
                        sink.send(&response);
                        continue;
                    }
                };
                let job = Job {
                    id,
                    kind,
                    deadline: shared.timeout.map(|t| Instant::now() + t),
                    sink: Arc::clone(sink),
                    conn: policy.conn,
                };
                if let Err(job) = shared.queue.push(job, &shared.counters.queue_peak) {
                    let (kind, msg) = if shared.queue.is_closed() {
                        (ErrorKind::ShuttingDown, "server is shutting down")
                    } else {
                        (ErrorKind::Rejected, "request queue full")
                    };
                    job.sink.send(&shared.error(job.id, kind, msg));
                }
            }
        }
    }
    // Shutdown path: connections that asked for the shutdown got their
    // ack; every other farewell-enabled (TCP) connection gets one typed
    // `shutting_down` line so the close is never a bare EOF. The farewell
    // is not a failed request, so it bypasses the error counters.
    if policy.farewell && !own_shutdown {
        sink.send(&Response {
            id: 0,
            body: ResponseBody::Error {
                kind: ErrorKind::ShuttingDown,
                message: "server is shutting down".into(),
            },
        });
    }
}

fn expired(deadline: Option<Instant>) -> bool {
    deadline.is_some_and(|d| Instant::now() >= d)
}

/// Answers one slice job against `entry` (the default trace or a leased
/// named session), consulting its result cache. `reg` receives the
/// backend's per-query counters.
fn answer_slice(
    entry: &SessionEntry,
    id: u64,
    criterion: &Criterion,
    deadline: Option<Instant>,
    shared: &Shared,
    reg: &Registry,
) -> Response {
    let started = Instant::now();
    entry.requests.fetch_add(1, Ordering::Relaxed);
    if expired(deadline) {
        return shared.error(id, ErrorKind::Timeout, "deadline exceeded before dispatch");
    }
    let slicer = entry.slicer();
    // Result-cache locks recover from poisoning: the cache holds only
    // completed slices, so whatever a panicking holder left behind is at
    // worst a missing entry — never worth failing the request over.
    let cache = || entry.cache.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
    let hit = cache().get(criterion);
    let (stmts, cached) = match hit {
        Some(stmts) => (stmts, true),
        None => match slicer.slice_with_stats(criterion) {
            Ok((slice, stats)) => {
                stats.record_metrics_for(slicer.name(), reg);
                let stmts: Arc<Vec<u32>> = Arc::new(slice.stmts.iter().map(|s| s.0).collect());
                cache().insert(*criterion, Arc::clone(&stmts));
                (stmts, false)
            }
            Err(SliceError::UnknownCriterion) => {
                return shared.error(
                    id,
                    ErrorKind::UnknownCriterion,
                    "criterion matches no executed statement",
                )
            }
            Err(SliceError::Truncated { partial }) => {
                return shared.error(
                    id,
                    ErrorKind::Truncated,
                    format!(
                        "slice truncated by pass budget ({} statements found)",
                        partial.stmts.len()
                    ),
                )
            }
            Err(SliceError::Io(e)) => return shared.error(id, ErrorKind::Io, e.to_string()),
        },
    };
    // A hit is nearly free, but the job may have sat in the queue past its
    // deadline, and a miss may have computed past it — never count (or
    // serve) a stale answer.
    if expired(deadline) {
        return shared.error(id, ErrorKind::Timeout, "deadline exceeded");
    }
    let (server, session) = if cached {
        (&shared.counters.cache_hits, &entry.cache_hits)
    } else {
        (&shared.counters.cache_misses, &entry.cache_misses)
    };
    server.fetch_add(1, Ordering::Relaxed);
    session.fetch_add(1, Ordering::Relaxed);
    shared.ok();
    Response {
        id,
        body: ResponseBody::Slice {
            algo: slicer.name().to_string(),
            stmts: (*stmts).clone(),
            cached,
            micros: started.elapsed().as_micros() as u64,
        },
    }
}

/// How a named-session checkout resolved (see [`checkout_session`]).
enum Checkout {
    /// The session is resident; slice against the lease.
    Ready(SessionLease),
    /// The session is still building and the request declined to wait.
    Loading,
    /// The deadline passed while waiting for the build.
    TimedOut,
    /// Neither resident nor building.
    Missing,
}

/// Resolves a session name to a lease, honoring the request's `wait`
/// flag against a session that is still building (a waiter sleeps until
/// the build's registration clears or the deadline passes). The resident
/// check always runs again after the loading check: an async build may
/// be admitted between the two, and that race must look like `Ready`,
/// never like `Missing`.
fn checkout_session(
    manager: &SessionManager,
    name: &str,
    wait: bool,
    deadline: Option<Instant>,
    conn: u64,
) -> Checkout {
    loop {
        if let Some(lease) = manager.checkout(name, conn) {
            return Checkout::Ready(lease);
        }
        if !manager.is_loading(name) {
            return match manager.checkout(name, conn) {
                Some(lease) => Checkout::Ready(lease),
                None => Checkout::Missing,
            };
        }
        if !wait {
            return Checkout::Loading;
        }
        if manager.wait_while_loading(name, deadline) {
            return Checkout::TimedOut;
        }
    }
}

/// Answers one job of any kind; sessionless slices go to `default`.
fn answer(
    default: &SessionEntry,
    manager: &SessionManager,
    job: &Job,
    shared: &Shared,
    reg: &Registry,
) -> Response {
    // Fault-injection point for request handling as a whole: an injected
    // `err` answers a typed `internal` error, an injected `panic` unwinds
    // into the worker's catch — exactly like a real handler bug would.
    if let Err(fault) = dynslice_faults::hit("request") {
        return shared.error(job.id, ErrorKind::Internal, fault.to_string());
    }
    match &job.kind {
        JobKind::Slice { criterion, session, wait } => {
            let Some(name) = session else {
                return answer_slice(default, job.id, criterion, job.deadline, shared, reg);
            };
            match checkout_session(manager, name, *wait, job.deadline, job.conn) {
                Checkout::Missing if manager.is_quarantined(name) => shared.error(
                    job.id,
                    ErrorKind::Quarantined,
                    format!(
                        "session `{name}` is quarantined after repeated panics; \
                         re-load it to resurrect the name"
                    ),
                ),
                Checkout::Missing => shared.error(
                    job.id,
                    ErrorKind::UnknownSession,
                    format!("session `{name}` is not loaded"),
                ),
                Checkout::Loading => shared.error(
                    job.id,
                    ErrorKind::Loading,
                    format!("session `{name}` is still loading"),
                ),
                Checkout::TimedOut => shared.error(
                    job.id,
                    ErrorKind::Timeout,
                    format!("deadline exceeded while session `{name}` was loading"),
                ),
                Checkout::Ready(lease) => {
                    let response =
                        answer_slice(&lease, job.id, criterion, job.deadline, shared, reg);
                    // A slice can grow a paged session past the memory
                    // budget; re-weigh and evict once the lease is back.
                    drop(lease);
                    manager.enforce_budget();
                    response
                }
            }
        }
        JobKind::Load { spec, wait } => {
            if expired(job.deadline) {
                return shared.error(job.id, ErrorKind::Timeout, "deadline exceeded before build");
            }
            if *wait {
                if manager.is_loading(&spec.name) {
                    return shared.error(
                        job.id,
                        ErrorKind::Loading,
                        format!("session `{}` is already loading", spec.name),
                    );
                }
                return match manager.load(spec, reg) {
                    Ok(entry) => {
                        shared.ok();
                        Response {
                            id: job.id,
                            body: ResponseBody::Loaded {
                                session: spec.name.clone(),
                                algo: entry.slicer().name().to_string(),
                                resident_bytes: entry.resident_bytes(),
                            },
                        }
                    }
                    Err(LoadError::Bad(msg)) => shared.error(job.id, ErrorKind::BadRequest, msg),
                    Err(LoadError::Rejected(msg)) => {
                        shared.error(job.id, ErrorKind::OverBudget, msg)
                    }
                    Err(LoadError::Io(e)) => shared.error(job.id, ErrorKind::Io, e.to_string()),
                };
            }
            // Asynchronous load: register the pending build (refusing a
            // duplicate), ack immediately, and let the loader pool build.
            if !manager.begin_load(&spec.name, spec.algo) {
                return shared.error(
                    job.id,
                    ErrorKind::Loading,
                    format!("session `{}` is already loading", spec.name),
                );
            }
            let build = LoadJob { spec: spec.clone() };
            match shared.loads.push(build, &shared.counters.load_queue_peak) {
                Ok(()) => {
                    shared.ok();
                    Response {
                        id: job.id,
                        body: ResponseBody::Loading { session: spec.name.clone() },
                    }
                }
                Err(_) => {
                    manager.end_load(&spec.name);
                    shared.error(job.id, ErrorKind::Rejected, "load queue full")
                }
            }
        }
        JobKind::Unload(name) => match manager.unload(name) {
            crate::Unload::Unloaded => {
                shared.ok();
                Response { id: job.id, body: ResponseBody::Unloaded { session: name.clone() } }
            }
            crate::Unload::Loading => shared.error(
                job.id,
                ErrorKind::Loading,
                format!("session `{name}` is still loading"),
            ),
            crate::Unload::Missing => shared.error(
                job.id,
                ErrorKind::UnknownSession,
                format!("session `{name}` is not loaded"),
            ),
        },
        JobKind::List => {
            shared.ok();
            Response { id: job.id, body: ResponseBody::Sessions { sessions: manager.list() } }
        }
    }
}

/// The last deadline check, immediately before the reply is written: a
/// response that was computed in time but went stale on the way out (or
/// belongs to a job kind with no earlier check, like `list`) answers
/// `timeout` instead. The `ok` count the answer already claimed is
/// handed back so the summary stays consistent.
fn finalize(response: Response, id: u64, deadline: Option<Instant>, shared: &Shared) -> Response {
    if matches!(response.body, ResponseBody::Error { .. }) || !expired(deadline) {
        return response;
    }
    shared.counters.responses_ok.fetch_sub(1, Ordering::Relaxed);
    shared.error(id, ErrorKind::Timeout, "deadline exceeded before reply")
}

fn worker_loop(default: &SessionEntry, manager: &SessionManager, shared: &Shared, reg: &Registry) {
    while let Some(job) = shared.queue.pop() {
        let in_flight = shared.in_flight.fetch_add(1, Ordering::Relaxed) + 1;
        shared.counters.in_flight_peak.fetch_max(in_flight, Ordering::Relaxed);
        // Panic isolation: a handler that unwinds kills this request, not
        // the worker. `AssertUnwindSafe` is justified because everything
        // the closure touches is either owned by the job or synchronized
        // (atomics, mutexes with poisoning confined to per-entry caches).
        let answered = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            answer(default, manager, &job, shared, reg)
        }));
        let response = match answered {
            Ok(response) => finalize(response, job.id, job.deadline, shared),
            Err(_) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                // Attribute the panic to the session the request addressed
                // so repeat offenders are quarantined.
                if let JobKind::Slice { session: Some(name), .. } = &job.kind {
                    manager.record_panic(name);
                }
                shared.error(
                    job.id,
                    ErrorKind::Internal,
                    "request handler panicked; the panic was isolated to this request",
                )
            }
        };
        job.sink.send(&response);
        shared.in_flight.fetch_sub(1, Ordering::Relaxed);
    }
}

/// Drains the background-load queue. A failed build answers nobody (the
/// `loading` ack already went out); it clears the pending entry — so
/// `list` stops showing the session and slices answer `unknown session`
/// — and counts under `failed`.
fn loader_loop(manager: &SessionManager, shared: &Shared, reg: &Registry) {
    while let Some(job) = shared.loads.pop() {
        // The guard owns the `loading` registration: every exit from this
        // iteration — success, failure, or a panicking build — clears it,
        // so a name can never wedge in the `loading` state and block
        // re-loads forever.
        let guard = manager.load_guard(&job.spec.name);
        let built = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            manager.load(&job.spec, reg)
        }));
        match built {
            // The admission already cleared the registration under its
            // own lock; a disarmed drop must not erase a newer one.
            Ok(Ok(_)) => guard.disarm(),
            Ok(Err(_)) => {
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
            }
            Err(_) => {
                shared.counters.panics.fetch_add(1, Ordering::Relaxed);
                shared.counters.failed.fetch_add(1, Ordering::Relaxed);
                // A panicking build counts against the name like a
                // panicking request does.
                manager.record_panic(&job.spec.name);
            }
        }
    }
}

/// A listener of either socket family, so one acceptor loop serves both.
/// A Unix listener keeps the public path it was renamed to: its own
/// `local_addr` names the temporary file it was bound under.
enum AnyListener {
    Unix(UnixListener, PathBuf),
    Tcp(TcpListener),
}

impl AnyListener {
    /// Blocks for the next connection.
    fn accept(&self) -> io::Result<Conn> {
        match self {
            AnyListener::Unix(l, _) => Ok(Conn::Unix(l.accept()?.0)),
            AnyListener::Tcp(l) => {
                let (stream, _) = l.accept()?;
                let _ = stream.set_nodelay(true);
                Ok(Conn::Tcp(stream))
            }
        }
    }

    /// Dials this listener once and hangs up, waking an acceptor blocked
    /// in [`accept`](Self::accept); whether the dial got through. A Unix
    /// listener is reached at its public path, a TCP listener at its bound
    /// address with an unspecified IP mapped to loopback.
    fn wake(&self) -> bool {
        match self {
            AnyListener::Unix(_, path) => UnixStream::connect(path).is_ok(),
            AnyListener::Tcp(l) => {
                let Ok(mut addr) = l.local_addr() else { return false };
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                TcpStream::connect_timeout(&addr, Duration::from_secs(1)).is_ok()
            }
        }
    }
}

/// Claims one slot of the connection cap (`0` = uncapped) in a single
/// atomic step, so acceptors on different listeners can never both admit
/// the last slot. Returns the new open count, or `None` at the cap.
fn admit(open: &AtomicU64, cap: usize) -> Option<u64> {
    open.fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| {
        (cap == 0 || n < cap as u64).then_some(n + 1)
    })
    .ok()
    .map(|n| n + 1)
}

/// Accepts connections until shutdown, enforcing the connection cap and
/// spawning one detached reader thread per admitted connection.
fn acceptor_loop(
    listener: &AnyListener,
    require_hello: bool,
    farewell: bool,
    shared: Arc<Shared>,
) {
    loop {
        let accepted = listener.accept();
        // At shutdown the supervisor's wake dial (or a client racing it)
        // lands here: drop it uncounted and stop accepting.
        if shared.shutdown.load(Ordering::SeqCst) {
            break;
        }
        let conn = match accepted {
            Ok(conn) => conn,
            // The peer gave up before the accept, or a signal landed:
            // nothing is wrong with the listener.
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionAborted | io::ErrorKind::Interrupted
                ) =>
            {
                continue
            }
            Err(e) => {
                eprintln!("[serve] listener closed: accept failed: {e}");
                break;
            }
        };
        // Three handles on one socket: the reader's, the reply sink's,
        // and the registry's (so shutdown can end the read).
        let (Ok(writer), Ok(handle)) = (conn.try_clone(), conn.try_clone()) else {
            continue;
        };
        let sink = Sink::new(Box::new(writer), &shared.counters);
        let Some(open) = admit(&shared.open_connections, shared.max_connections) else {
            // Typed rejection, then drop: the client learns it should
            // back off instead of staring at a dead socket.
            sink.send(&shared.error(
                0,
                ErrorKind::Busy,
                format!("server is at its connection limit ({})", shared.max_connections),
            ));
            continue;
        };
        let id = shared.counters.connections.fetch_add(1, Ordering::Relaxed) + 1;
        shared.counters.connections_peak.fetch_max(open, Ordering::Relaxed);
        shared.readers_active.fetch_add(1, Ordering::SeqCst);
        shared.register(id, handle);
        let shared = Arc::clone(&shared);
        thread::spawn(move || {
            let policy = ConnPolicy { require_hello, farewell, conn: id };
            let idle = shared.idle_timeout.map(|limit| (&conn, limit));
            serve_connection(&conn, idle, &sink, &shared, &policy);
            shared.open_connections.fetch_sub(1, Ordering::SeqCst);
            shared.unregister(id);
            shared.reader_exit();
        });
    }
    shared.reader_exit();
}

/// Runs the slice service until its transports end (stdin EOF, every
/// connection closed), SIGTERM arrives, or a client sends
/// `{"op":"shutdown"}`; accepted requests are drained before returning.
///
/// `transports` may hold several listeners — typically a Unix socket and
/// a TCP listener serving concurrently; an empty vector is the stdio
/// transport.
///
/// `default` serves sessionless requests: the trace the server was
/// launched with, wrapped by [`SessionManager::default_entry`] and held
/// outside the manager's table. `manager` owns the named sessions that
/// `load` creates, and the [`ServerCounters`] table the run counts into.
///
/// The session's wall time lands in the `serve` phase and the table's
/// rows in `reg`. Per-session sub-reports stay in the manager — callers
/// fold [`SessionManager::final_reports`] into their run report.
///
/// # Errors
/// Fails only if the supervisor's wake socket pair cannot be created;
/// transport errors end the affected connection, not the session.
pub fn serve(
    default: &SessionEntry,
    manager: &SessionManager,
    config: &ServeConfig,
    transports: Vec<Transport>,
    reg: &Registry,
) -> io::Result<()> {
    let start = Instant::now();
    let shared = Arc::new(Shared::new(config, Arc::clone(manager.server_counters()))?);
    shared.counters.workers.store(config.workers.max(1) as u64, Ordering::Relaxed);
    shared.counters.loaders.store(config.loaders.max(1) as u64, Ordering::Relaxed);
    let wake_fd = shared.waker.tx.as_raw_fd();
    WAKE_FD.store(wake_fd, Ordering::SeqCst);
    SIGTERM_RECEIVED.store(false, Ordering::SeqCst);
    install_sigterm_handler();
    let transports = if transports.is_empty() { vec![Transport::Stdio] } else { transports };
    let socket_paths: Vec<PathBuf> = transports
        .iter()
        .filter_map(|t| match t {
            Transport::Unix(_, path) => Some(path.clone()),
            _ => None,
        })
        .collect();
    // Each acceptor with the listener it shares, kept here to wake it;
    // joined once woken, so every listener is closed by the time `serve`
    // returns.
    let mut acceptors: Vec<(JoinHandle<()>, Arc<AnyListener>)> = Vec::new();

    thread::scope(|scope| {
        let mut workers = Vec::new();
        for _ in 0..config.workers.max(1) {
            let shared = &shared;
            workers.push(scope.spawn(move || worker_loop(default, manager, shared, reg)));
        }
        for _ in 0..config.loaders.max(1) {
            let shared = &shared;
            scope.spawn(move || loader_loop(manager, shared, reg));
        }

        // Readers and acceptors run detached with `'static` state: the
        // stdio reader blocks on stdin, which nothing can interrupt, and
        // is abandoned at process exit. Socket readers and acceptors are
        // woken at shutdown.
        for transport in transports {
            shared.readers_active.fetch_add(1, Ordering::SeqCst);
            let shared = Arc::clone(&shared);
            let (listener, tcp) = match transport {
                Transport::Stdio => {
                    let sink = Sink::new(Box::new(io::stdout()), &shared.counters);
                    thread::spawn(move || {
                        let policy =
                            ConnPolicy { require_hello: false, farewell: false, conn: 0 };
                        serve_connection(io::stdin().lock(), None, &sink, &shared, &policy);
                        shared.reader_exit();
                    });
                    continue;
                }
                Transport::Unix(listener, path) => (AnyListener::Unix(listener, path), false),
                Transport::Tcp(listener) => (AnyListener::Tcp(listener), true),
            };
            // TCP demands the handshake and says farewell; Unix does neither.
            let listener = Arc::new(listener);
            let accepting = Arc::clone(&listener);
            let acceptor = thread::spawn(move || acceptor_loop(&accepting, tcp, tcp, shared));
            acceptors.push((acceptor, listener));
        }

        // Supervisor: sleep until something rings — SIGTERM, the
        // `shutdown` op, or the last reader leaving (stdin EOF) — then
        // recheck every cause. A ring that lands between the checks and
        // the wait stays buffered, so the wait returns at once.
        loop {
            if SIGTERM_RECEIVED.load(Ordering::SeqCst) {
                shared.shutdown.store(true, Ordering::SeqCst);
            }
            if shared.shutdown.load(Ordering::SeqCst)
                || shared.readers_active.load(Ordering::SeqCst) == 0
            {
                break;
            }
            shared.waker.wait();
        }
        // Stop admitting (each acceptor wakes, sees the flag, and drops
        // the dial), then end every live connection's read so its reader
        // says its farewell now rather than at its next request.
        shared.shutdown.store(true, Ordering::SeqCst);
        // An acceptor the dial cannot reach may stay blocked in `accept`:
        // it is never joined.
        acceptors.retain(|(_, listener)| listener.wake());
        shared.wake_readers();
        // Draining workers may still enqueue loads, so the load queue
        // closes only after every worker has exited — then the loaders
        // drain what was accepted and the scope join completes.
        shared.queue.close();
        for worker in workers {
            let _ = worker.join();
        }
        shared.loads.close();
    });
    shared.await_readers(READER_DRAIN_LIMIT);
    for (acceptor, _listener) in acceptors {
        let _ = acceptor.join();
    }
    let _ = WAKE_FD.compare_exchange(wake_fd, -1, Ordering::SeqCst, Ordering::SeqCst);

    for path in socket_paths {
        let _ = std::fs::remove_file(path);
    }
    reg.phase_add(phases::SERVE, start.elapsed());
    shared.counters.record_metrics(reg);
    // Reconciliation: every injected fault the plan fired lands in the
    // report as `faults.<point>.<action>`, so a chaos run can check
    // `server.panics`/`server.retries` against what was injected.
    if let Some(plan) = dynslice_faults::installed() {
        for ((point, action), hits) in plan.injections() {
            if hits > 0 {
                reg.counter_add(&format!("faults.{point}.{action}"), hits);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn queue_rejects_when_full_and_drains_after_close() {
        let queue = Queue::new(1);
        let peak = AtomicU64::new(0);
        let sink = Sink::new(Box::new(io::sink()), &Arc::default());
        let job = |id| Job {
            id,
            kind: JobKind::Slice { criterion: Criterion::Output(0), session: None, wait: false },
            deadline: None,
            sink: Arc::clone(&sink),
            conn: 0,
        };
        assert!(queue.push(job(1), &peak).is_ok());
        let bounced = queue.push(job(2), &peak).unwrap_err();
        assert_eq!(bounced.id, 2);
        assert!(!queue.is_closed());
        queue.close();
        assert!(queue.is_closed());
        assert!(queue.push(job(3), &peak).is_err(), "closed queue rejects");
        assert_eq!(queue.pop().map(|j| j.id), Some(1), "accepted job survives close");
        assert!(queue.pop().is_none());
        assert_eq!(peak.load(Ordering::Relaxed), 1);
    }

    fn lines_over(input: &[u8], max: usize) -> LineReader<'static, &[u8]> {
        LineReader::new(input, max, Arc::default(), None)
    }

    /// The bounded reader: whole lines come out newline-stripped, CRLF
    /// is tolerated, EOF ends the stream, and several lines arriving in
    /// one read are split correctly.
    #[test]
    fn line_reader_splits_and_strips() {
        let mut lines = lines_over(b"one\ntwo\r\n\nthree\n", 64);
        for expected in ["one", "two", "", "three"] {
            match lines.next_line() {
                LineRead::Line(l) => assert_eq!(l, expected),
                _ => panic!("expected a line"),
            }
        }
        assert!(matches!(lines.next_line(), LineRead::Eof));
    }

    /// The OOM fix: a line past the cap is reported `Oversized` exactly
    /// once with at most `max`+chunk bytes retained, the overflow is
    /// discarded, and the stream resynchronizes on the next newline.
    #[test]
    fn line_reader_caps_hostile_lines_and_resyncs() {
        let mut input = vec![b'x'; 10_000];
        input.extend_from_slice(b"\n{\"id\":1}\n");
        let mut lines = lines_over(&input, 16);
        assert!(matches!(lines.next_line(), LineRead::Oversized));
        assert!(lines.pending.len() <= 16 + 4096, "bounded memory while discarding");
        match lines.next_line() {
            LineRead::Line(l) => assert_eq!(l, "{\"id\":1}"),
            _ => panic!("stream must resync after the oversized line"),
        }
        assert!(matches!(lines.next_line(), LineRead::Eof));

        // A line of exactly the cap passes; one byte more does not.
        let mut exact = vec![b'y'; 16];
        exact.push(b'\n');
        let mut lines = lines_over(&exact, 16);
        assert!(matches!(lines.next_line(), LineRead::Line(_)));
        let mut over = vec![b'y'; 17];
        over.push(b'\n');
        let mut lines = lines_over(&over, 16);
        assert!(matches!(lines.next_line(), LineRead::Oversized));
    }

    /// An oversized line never starves the read-bytes counter and an
    /// unterminated hostile stream (no newline before EOF) terminates.
    #[test]
    fn line_reader_counts_bytes_and_survives_unterminated_garbage() {
        let counters = Arc::<ServerCounters>::default();
        let input: Vec<u8> = vec![b'z'; 9000];
        let mut lines = LineReader::new(&input[..], 8, Arc::clone(&counters), None);
        assert!(matches!(lines.next_line(), LineRead::Oversized));
        assert!(matches!(lines.next_line(), LineRead::Eof));
        assert_eq!(counters.read_bytes.load(Ordering::Relaxed), 9000);
    }

    /// The pre-reply deadline recheck: an ok answer that went stale on
    /// the way to the sink becomes `timeout` (handing back its `ok`
    /// count), while errors and in-deadline answers pass through. This
    /// is the only check `list`/`unload` jobs ever get.
    #[test]
    fn finalize_converts_stale_ok_replies_to_timeouts() {
        let shared = Shared::new(&ServeConfig::default(), Arc::default()).unwrap();
        let oks = || shared.counters.responses_ok.load(Ordering::Relaxed);
        let timeouts = || shared.counters.timeouts.load(Ordering::Relaxed);
        shared.ok(); // as `answer` counted it
        let past = Some(Instant::now() - Duration::from_millis(1));
        let ok = Response { id: 7, body: ResponseBody::Sessions { sessions: Vec::new() } };
        let out = finalize(ok, 7, past, &shared);
        assert!(
            matches!(out.body, ResponseBody::Error { kind: ErrorKind::Timeout, .. }),
            "stale ok reply must become a timeout"
        );
        assert_eq!(oks(), 0, "the ok count is handed back");
        assert_eq!(timeouts(), 1);

        // An expired error reply keeps its kind (and its counter).
        let err = shared.error(8, ErrorKind::BadRequest, "nope");
        let out = finalize(err, 8, past, &shared);
        assert!(matches!(out.body, ResponseBody::Error { kind: ErrorKind::BadRequest, .. }));
        assert_eq!(timeouts(), 1);

        // A live deadline (or none) leaves ok replies alone.
        shared.ok();
        let future = Some(Instant::now() + Duration::from_secs(300));
        let ok = Response { id: 9, body: ResponseBody::Unloaded { session: "s".into() } };
        let out = finalize(ok, 9, future, &shared);
        assert!(matches!(out.body, ResponseBody::Unloaded { .. }));
        let ok = Response { id: 10, body: ResponseBody::ShutdownAck };
        let out = finalize(ok, 10, None, &shared);
        assert!(matches!(out.body, ResponseBody::ShutdownAck));
        assert_eq!(oks(), 1);
    }

    /// The connection cap admits through one atomic step: slots are
    /// granted up to the cap and refused at it, a freed slot is granted
    /// again, and `0` means uncapped.
    #[test]
    fn admit_grants_slots_up_to_the_cap_and_no_further() {
        let open = AtomicU64::new(0);
        assert_eq!(admit(&open, 2), Some(1));
        assert_eq!(admit(&open, 2), Some(2));
        assert_eq!(admit(&open, 2), None, "at the cap");
        assert_eq!(open.load(Ordering::SeqCst), 2, "a refusal claims nothing");
        open.fetch_sub(1, Ordering::SeqCst);
        assert_eq!(admit(&open, 2), Some(2), "a freed slot is granted again");
        assert_eq!(admit(&open, 0), Some(3), "0 disables the cap");

        // Two acceptors racing for the last slot: exactly one wins.
        for _ in 0..200 {
            let open = AtomicU64::new(4);
            let barrier = std::sync::Barrier::new(2);
            let won: usize = thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            barrier.wait();
                            usize::from(admit(&open, 5).is_some())
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).sum()
            });
            assert_eq!(won, 1);
            assert_eq!(open.load(Ordering::SeqCst), 5);
        }
    }

    /// A ring before the supervisor waits is kept, several rings are
    /// consumed by one wait, and a wait blocks until the next ring.
    #[test]
    fn waker_keeps_early_rings_and_blocks_until_the_next() {
        let waker = Waker::new().unwrap();
        waker.wake();
        waker.wake();
        waker.wait(); // returns at once: the rings were buffered
        let rung = AtomicBool::new(false);
        thread::scope(|scope| {
            scope.spawn(|| {
                waker.wait();
                assert!(rung.load(Ordering::SeqCst), "woke before the ring");
            });
            thread::sleep(Duration::from_millis(50));
            rung.store(true, Ordering::SeqCst);
            waker.wake();
        });
    }

    #[test]
    fn unix_transport_refuses_to_clobber_a_regular_file() {
        let dir = std::env::temp_dir()
            .join(format!("dynslice-transport-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("not-a-socket");
        std::fs::write(&path, b"precious data").unwrap();
        let err = Transport::unix(path.clone()).expect_err("must refuse");
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert_eq!(
            std::fs::read(&path).unwrap(),
            b"precious data",
            "the file must be left intact"
        );
        std::fs::remove_dir_all(&dir).ok();
    }

    /// The listener is renamed into place only once it listens: when
    /// `Transport::unix` returns, the directory holds the public socket
    /// alone, and it accepts a connect at once.
    #[test]
    fn unix_transport_listens_before_its_path_appears() {
        let dir =
            std::env::temp_dir().join(format!("dynslice-transport-ready-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("srv.sock");
        let transport = Transport::unix(path.clone()).unwrap();
        let entries: Vec<_> = std::fs::read_dir(&dir).unwrap().map(|e| e.unwrap().path()).collect();
        assert_eq!(entries, std::slice::from_ref(&path), "no staging file is left behind");
        UnixStream::connect(&path).expect("the public path accepts a connect");
        drop(transport);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unix_transport_refuses_a_live_socket_but_reaps_a_stale_one() {
        let dir = std::env::temp_dir()
            .join(format!("dynslice-transport-live-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("srv.sock");
        let live = UnixListener::bind(&path).unwrap();
        let err = Transport::unix(path.clone()).expect_err("live socket must be refused");
        assert_eq!(err.kind(), io::ErrorKind::AddrInUse);
        assert!(
            std::fs::symlink_metadata(&path).is_ok(),
            "the live server's socket must not be removed"
        );
        // Once the listener is gone the socket file is stale: rebind works.
        drop(live);
        let t = Transport::unix(path.clone()).expect("stale socket is reaped");
        drop(t);
        std::fs::remove_dir_all(&dir).ok();
    }
}
