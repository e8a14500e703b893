//! The slice service's wire protocol: newline-delimited JSON.
//!
//! One request per line in, one response per line out, over stdin/stdout
//! or a Unix socket (`dynslice serve`). Responses carry the request's `id`
//! so clients may pipeline: the server answers out of order when a slow
//! query overlaps a fast one.
//!
//! Requests:
//!
//! ```text
//! {"id":0,"op":"hello","proto":1}
//! {"id":1,"criterion":"out:0"}
//! {"id":2,"criterion":"cell:0:4"}
//! {"id":3,"op":"load","session":"t1","program":"a.minic","input":"4,5"}
//! {"id":4,"criterion":"out:0","session":"t1"}
//! {"id":5,"op":"list"}
//! {"id":6,"op":"unload","session":"t1"}
//! {"id":7,"op":"shutdown"}
//! {"id":8,"op":"health"}
//! ```
//!
//! `op` defaults to `"slice"`. A slice request without a `session` field
//! is answered by the trace the server was launched with — byte-identical
//! to the single-trace protocol that predates sessions, so old clients
//! keep working unmodified. `load` compiles `program`, traces it with
//! `input` (comma-separated integers), builds the backend named by `algo`
//! (the server's default when omitted), and registers it under `session`.
//! By default the load is **asynchronous**: the server acknowledges with
//! `{"ok":true,"loading":NAME}` immediately and builds on a background
//! pool, so resident sessions keep answering; `"wait":true` restores the
//! blocking build that answers `loaded` once resident. A `slice` against
//! a session that is still building gets a typed `loading` error — or,
//! with `"wait":true`, blocks until the build resolves.
//! `unload` drops a session; `list` enumerates resident sessions (and
//! sessions still loading, marked `"state":"loading"`).
//! `shutdown` asks the server to stop accepting
//! requests, drain in-flight work, and exit (the protocol twin of
//! EOF/SIGTERM).
//!
//! `hello` is the versioned handshake introduced with the TCP transport:
//! the client states the protocol revision it speaks
//! ([`PROTO_VERSION`]) and the server answers with the range it supports
//! plus its identity string. TCP connections **must** open with `hello`
//! (any other first line is a typed `handshake_required` error); Unix
//! sockets and stdio accept it but do not require it, so every pre-TCP
//! client keeps working against the byte-identical legacy wire format.
//!
//! `health` is the liveness probe: like `hello` it is answered before the
//! handshake gate on every transport, reporting `status` (`ok`, or
//! `degraded` once a panic was caught or a session quarantined) plus the
//! resident/loading/quarantined session counts, queue depth, and the
//! panic/retry counters. It carries no wall-clock fields, so probes are
//! deterministic under test.
//!
//! Responses:
//!
//! ```text
//! {"id":0,"ok":true,"proto_max":1,"proto_min":1,"server":"dynslice/0.1.0"}
//! {"id":1,"ok":true,"algo":"opt","len":3,"stmts":[0,2,5],"cached":false,"micros":180}
//! {"id":3,"ok":true,"loading":"t1"}
//! {"id":3,"ok":true,"loaded":"t1","algo":"opt","resident_bytes":8192}
//! {"id":5,"ok":true,"sessions":[{"name":"t1","algo":"opt","resident_bytes":8192,"requests":4}]}
//! {"id":6,"ok":true,"unloaded":"t1"}
//! {"id":2,"ok":false,"error":"timeout","message":"deadline exceeded after 100ms"}
//! {"id":4,"ok":false,"error":"loading","message":"session `t1` is still loading"}
//! {"id":7,"ok":true,"shutdown":true}
//! ```
//!
//! Serialization reuses the observability layer's JSON model
//! ([`dynslice_obs::json`]) in its compact one-line form; the parser is
//! the same strict one that validates run reports.

use std::collections::BTreeMap;

use dynslice_obs::json::{self, Value};
use dynslice_slicing::Criterion;

use crate::criteria::format_criterion;

/// The protocol revision this build speaks (the `proto` field of a
/// `hello` request). Bump when the wire format changes incompatibly.
pub const PROTO_VERSION: u64 = 1;

/// Oldest protocol revision the server still accepts in a `hello`.
pub const PROTO_MIN: u64 = 1;

/// Newest protocol revision the server accepts in a `hello`.
pub const PROTO_MAX: u64 = PROTO_VERSION;

/// What a request asks the server to do.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Op {
    /// Open a connection: state the client's protocol revision and learn
    /// the server's supported range and identity. Mandatory first line on
    /// TCP; optional elsewhere.
    Hello,
    /// Answer a slice query.
    Slice,
    /// Build and register a named session (program + input + backend).
    Load,
    /// Drop a named session.
    Unload,
    /// Enumerate resident sessions.
    List,
    /// Report the server's liveness and fault counters. Like `hello`,
    /// answered before the handshake gate on every transport, so probes
    /// need no protocol negotiation.
    Health,
    /// Stop accepting requests, drain, and exit.
    Shutdown,
}

/// One parsed request line.
#[derive(Clone, Debug, PartialEq)]
pub struct Request {
    /// Client-chosen correlation id, echoed in the response.
    pub id: u64,
    /// The operation (`slice` unless stated).
    pub op: Op,
    /// The criterion string (`out:K` / `cell:INST:OFF`); required for
    /// [`Op::Slice`].
    pub criterion: Option<String>,
    /// The session the request addresses: required for [`Op::Load`] and
    /// [`Op::Unload`]; optional for [`Op::Slice`] (absent = the default
    /// trace the server was launched with).
    pub session: Option<String>,
    /// MiniC source path to compile server-side ([`Op::Load`] only; a
    /// load needs this or [`Self::snapshot`]).
    pub program: Option<String>,
    /// Snapshot file to restore the session from instead of building
    /// from `program` ([`Op::Load`] only). Takes precedence over
    /// `program` when both are present.
    pub snapshot: Option<String>,
    /// Comma-separated input tape for the loaded program's trace
    /// ([`Op::Load`] only; empty/absent = no input).
    pub input: Option<String>,
    /// Backend algorithm for the loaded session ([`Op::Load`] only;
    /// absent = the server's default).
    pub algo: Option<String>,
    /// Blocking variant selector: a `load` with `wait` builds inline and
    /// answers `loaded` (instead of the immediate `loading` ack); a
    /// `slice` with `wait` blocks on a still-loading session instead of
    /// answering a `loading` error. Omitted on the wire when false.
    pub wait: bool,
    /// Protocol revision the client speaks; required for [`Op::Hello`],
    /// absent (and off the wire) for every other op so the legacy
    /// encodings are untouched.
    pub proto: Option<u64>,
}

impl Request {
    fn bare(id: u64, op: Op) -> Self {
        Request {
            id,
            op,
            criterion: None,
            session: None,
            program: None,
            snapshot: None,
            input: None,
            algo: None,
            wait: false,
            proto: None,
        }
    }

    /// A handshake request announcing the protocol revision the client
    /// speaks (normally [`PROTO_VERSION`]).
    pub fn hello(id: u64, proto: u64) -> Self {
        Request { proto: Some(proto), ..Request::bare(id, Op::Hello) }
    }

    /// A slice request for `criterion` against the server's default trace
    /// (client-side constructor).
    pub fn slice(id: u64, criterion: &Criterion) -> Self {
        Request {
            criterion: Some(format_criterion(criterion)),
            ..Request::bare(id, Op::Slice)
        }
    }

    /// A slice request addressed to the named session.
    pub fn slice_in(id: u64, session: &str, criterion: &Criterion) -> Self {
        Request { session: Some(session.to_string()), ..Request::slice(id, criterion) }
    }

    /// A blocking load request: build `program` traced with `input` under
    /// `session`, answering `loaded` once resident. (This constructor
    /// keeps the pre-async synchronous contract by setting `wait`; see
    /// [`Request::load_async`] for the fire-and-forget form.)
    pub fn load(
        id: u64,
        session: &str,
        program: &str,
        input: &[i64],
        algo: Option<&str>,
    ) -> Self {
        Request { wait: true, ..Request::load_async(id, session, program, input, algo) }
    }

    /// An asynchronous load request: the server acknowledges with
    /// `loading` immediately and builds in the background.
    pub fn load_async(
        id: u64,
        session: &str,
        program: &str,
        input: &[i64],
        algo: Option<&str>,
    ) -> Self {
        Request {
            session: Some(session.to_string()),
            program: Some(program.to_string()),
            input: if input.is_empty() {
                None
            } else {
                Some(input.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(","))
            },
            algo: algo.map(str::to_string),
            ..Request::bare(id, Op::Load)
        }
    }

    /// A blocking load request that restores `session` from a snapshot
    /// file instead of compiling and tracing a program.
    pub fn load_snapshot(id: u64, session: &str, snapshot: &str, algo: Option<&str>) -> Self {
        Request {
            session: Some(session.to_string()),
            snapshot: Some(snapshot.to_string()),
            algo: algo.map(str::to_string),
            wait: true,
            ..Request::bare(id, Op::Load)
        }
    }

    /// An unload request for the named session.
    pub fn unload(id: u64, session: &str) -> Self {
        Request { session: Some(session.to_string()), ..Request::bare(id, Op::Unload) }
    }

    /// A list request (client-side constructor).
    pub fn list(id: u64) -> Self {
        Request::bare(id, Op::List)
    }

    /// A health probe (client-side constructor).
    pub fn health(id: u64) -> Self {
        Request::bare(id, Op::Health)
    }

    /// A shutdown request (client-side constructor).
    pub fn shutdown(id: u64) -> Self {
        Request::bare(id, Op::Shutdown)
    }

    /// Serializes to one protocol line (no trailing newline).
    ///
    /// Optional fields are omitted when unset, so a sessionless slice
    /// request serializes to exactly the bytes the pre-session protocol
    /// produced.
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("id".into(), Value::Num(self.id as f64));
        let mut put_session = || {
            self.session.clone().map(|s| obj.insert("session".into(), Value::Str(s)))
        };
        match self.op {
            Op::Hello => {
                obj.insert("op".into(), Value::Str("hello".into()));
                if let Some(p) = self.proto {
                    obj.insert("proto".into(), Value::Num(p as f64));
                }
            }
            Op::Slice => {
                put_session();
                if let Some(c) = &self.criterion {
                    obj.insert("criterion".into(), Value::Str(c.clone()));
                }
                if self.wait {
                    obj.insert("wait".into(), Value::Bool(true));
                }
            }
            Op::Load => {
                put_session();
                obj.insert("op".into(), Value::Str("load".into()));
                if let Some(p) = &self.program {
                    obj.insert("program".into(), Value::Str(p.clone()));
                }
                if let Some(s) = &self.snapshot {
                    obj.insert("snapshot".into(), Value::Str(s.clone()));
                }
                if let Some(i) = &self.input {
                    obj.insert("input".into(), Value::Str(i.clone()));
                }
                if let Some(a) = &self.algo {
                    obj.insert("algo".into(), Value::Str(a.clone()));
                }
                if self.wait {
                    obj.insert("wait".into(), Value::Bool(true));
                }
            }
            Op::Unload => {
                put_session();
                obj.insert("op".into(), Value::Str("unload".into()));
            }
            Op::List => {
                obj.insert("op".into(), Value::Str("list".into()));
            }
            Op::Health => {
                obj.insert("op".into(), Value::Str("health".into()));
            }
            Op::Shutdown => {
                obj.insert("op".into(), Value::Str("shutdown".into()));
            }
        }
        Value::Obj(obj).to_json_compact()
    }

    /// Parses one request line.
    ///
    /// # Errors
    /// Malformed JSON, wrong field types, unknown `op`, a `slice` request
    /// without a `criterion`, or a `load`/`unload` without its required
    /// fields.
    pub fn parse(line: &str) -> Result<Self, String> {
        let root = json::parse(line)?;
        let obj = root.as_obj().ok_or("request must be a JSON object")?;
        let id = match obj.get("id") {
            None => 0,
            Some(v) => v.as_u64().ok_or("`id` must be an unsigned integer")?,
        };
        let op = match obj.get("op") {
            None => Op::Slice,
            Some(v) => match v.as_str() {
                Some("hello") => Op::Hello,
                Some("slice") => Op::Slice,
                Some("load") => Op::Load,
                Some("unload") => Op::Unload,
                Some("list") => Op::List,
                Some("health") => Op::Health,
                Some("shutdown") => Op::Shutdown,
                Some(other) => return Err(format!("unknown op `{other}`")),
                None => return Err("`op` must be a string".into()),
            },
        };
        let string_field = |name: &str| -> Result<Option<String>, String> {
            match obj.get(name) {
                None => Ok(None),
                Some(v) => {
                    Ok(Some(v.as_str().ok_or(format!("`{name}` must be a string"))?.to_string()))
                }
            }
        };
        let criterion = string_field("criterion")?;
        let session = string_field("session")?;
        let program = string_field("program")?;
        let snapshot = string_field("snapshot")?;
        let input = string_field("input")?;
        let algo = string_field("algo")?;
        if matches!(session.as_deref(), Some("")) {
            return Err("`session` must be non-empty".into());
        }
        let proto = match obj.get("proto") {
            None => None,
            Some(v) => Some(v.as_u64().ok_or("`proto` must be an unsigned integer")?),
        };
        match op {
            Op::Hello if proto.is_none() => return Err("hello request needs a `proto`".into()),
            Op::Slice if criterion.is_none() => {
                return Err("slice request needs a `criterion`".into())
            }
            Op::Load if session.is_none() => return Err("load request needs a `session`".into()),
            Op::Load if program.is_none() && snapshot.is_none() => {
                return Err("load request needs a `program` or `snapshot`".into())
            }
            Op::Unload if session.is_none() => {
                return Err("unload request needs a `session`".into())
            }
            _ => {}
        }
        let wait = match obj.get("wait") {
            None => false,
            Some(Value::Bool(b)) => *b,
            Some(_) => return Err("`wait` must be a boolean".into()),
        };
        Ok(Request { id, op, criterion, session, program, snapshot, input, algo, wait, proto })
    }
}

/// Machine-readable failure category in an error response.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ErrorKind {
    /// The request line did not parse, the criterion was malformed, or a
    /// `load` failed to compile/trace its program.
    BadRequest,
    /// The criterion never executed ([`dynslice_slicing::SliceError::UnknownCriterion`]).
    UnknownCriterion,
    /// The request addressed a session that is not loaded (never loaded,
    /// unloaded, or evicted under memory pressure).
    UnknownSession,
    /// Admitting the loaded session would exceed the server's memory
    /// budget (or session cap) even after evicting every idle session.
    OverBudget,
    /// The slice was cut off by the backend's pass budget
    /// ([`dynslice_slicing::SliceError::Truncated`]).
    Truncated,
    /// The per-request deadline expired before an answer was ready.
    Timeout,
    /// The bounded request queue was full (backpressure) or the server was
    /// shutting down.
    Rejected,
    /// The backend hit an I/O error.
    Io,
    /// The addressed session is still building (a `slice` without `wait`
    /// raced an asynchronous `load`, or a `load` named a session that is
    /// already loading).
    Loading,
    /// The server's `--max-connections` cap is reached; the connection is
    /// rejected at accept time and closed. Clients should back off and
    /// retry ([`crate::client::ClientBuilder::retries`]).
    Busy,
    /// A request line exceeded the server's hard length limit; the
    /// offending line is discarded (bounded memory) and the connection
    /// keeps serving.
    Oversized,
    /// The server is shutting down: the final line written to each live
    /// connection before a graceful close, and the answer to any request
    /// that arrives after the drain began.
    ShuttingDown,
    /// A TCP connection sent something other than `hello` as its first
    /// line; the connection is closed.
    HandshakeRequired,
    /// A `hello` named a protocol revision outside the server's
    /// supported `[proto_min, proto_max]` range; the connection is
    /// closed.
    UnsupportedProto,
    /// The request made the server panic; the panic was caught, the
    /// request is the only casualty, and the server keeps serving.
    /// Retrying may succeed (e.g. an injected fault that has expired).
    Internal,
    /// The addressed session's slicer panicked repeatedly and was
    /// quarantined: evicted and refusing queries until re-`load`ed.
    Quarantined,
}

impl ErrorKind {
    /// The protocol tag (`error` field value).
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::BadRequest => "bad_request",
            ErrorKind::UnknownCriterion => "unknown_criterion",
            ErrorKind::UnknownSession => "unknown_session",
            ErrorKind::OverBudget => "over_budget",
            ErrorKind::Truncated => "truncated",
            ErrorKind::Timeout => "timeout",
            ErrorKind::Rejected => "rejected",
            ErrorKind::Io => "io",
            ErrorKind::Loading => "loading",
            ErrorKind::Busy => "busy",
            ErrorKind::Oversized => "oversized",
            ErrorKind::ShuttingDown => "shutting_down",
            ErrorKind::HandshakeRequired => "handshake_required",
            ErrorKind::UnsupportedProto => "unsupported_proto",
            ErrorKind::Internal => "internal",
            ErrorKind::Quarantined => "quarantined",
        }
    }

    /// The process exit code the `dynslice` CLI maps this kind to — the
    /// single source of truth shared by `bin/dynslice.rs` and the serve
    /// loop, so the taxonomy cannot drift between the wire and the shell.
    ///
    /// The match is exhaustive on purpose: adding an [`ErrorKind`]
    /// without deciding its exit code fails to compile.
    ///
    /// * `2` — the caller's request was malformed (usage errors).
    /// * `3` — the request addressed something that does not exist.
    /// * `4` — the answer was cut off by a configured budget.
    /// * `5` — the environment failed (I/O).
    /// * `1` — transient service conditions (retry may succeed).
    pub fn exit_code(self) -> u8 {
        match self {
            ErrorKind::BadRequest => 2,
            ErrorKind::Oversized => 2,
            ErrorKind::HandshakeRequired => 2,
            ErrorKind::UnsupportedProto => 2,
            ErrorKind::UnknownCriterion => 3,
            ErrorKind::UnknownSession => 3,
            // A quarantined session no longer answers: from the caller's
            // shell, that is "addressed something that does not exist"
            // (and a re-`load` resurrects it, like any unloaded name).
            ErrorKind::Quarantined => 3,
            ErrorKind::Truncated => 4,
            ErrorKind::Io => 5,
            ErrorKind::OverBudget => 1,
            ErrorKind::Timeout => 1,
            ErrorKind::Rejected => 1,
            ErrorKind::Loading => 1,
            ErrorKind::Busy => 1,
            ErrorKind::ShuttingDown => 1,
            // A caught panic is transient from the caller's view: the
            // server survived and an immediate retry may succeed.
            ErrorKind::Internal => 1,
        }
    }

    /// Maps a backend failure to its protocol category — shared by the
    /// serve loop and the CLI so both report the same taxonomy.
    pub fn from_slice_error(e: &dynslice_slicing::SliceError) -> Self {
        use dynslice_slicing::SliceError;
        match e {
            SliceError::UnknownCriterion => ErrorKind::UnknownCriterion,
            SliceError::Truncated { .. } => ErrorKind::Truncated,
            SliceError::Io(_) => ErrorKind::Io,
        }
    }

    /// Every kind, for exhaustive protocol tests.
    pub const ALL: [ErrorKind; 16] = [
        ErrorKind::BadRequest,
        ErrorKind::UnknownCriterion,
        ErrorKind::UnknownSession,
        ErrorKind::OverBudget,
        ErrorKind::Truncated,
        ErrorKind::Timeout,
        ErrorKind::Rejected,
        ErrorKind::Io,
        ErrorKind::Loading,
        ErrorKind::Busy,
        ErrorKind::Oversized,
        ErrorKind::ShuttingDown,
        ErrorKind::HandshakeRequired,
        ErrorKind::UnsupportedProto,
        ErrorKind::Internal,
        ErrorKind::Quarantined,
    ];
}

impl std::str::FromStr for ErrorKind {
    type Err = String;

    /// Parses a protocol tag; unknown tags are reported verbatim.
    fn from_str(s: &str) -> Result<Self, String> {
        Ok(match s {
            "bad_request" => ErrorKind::BadRequest,
            "unknown_criterion" => ErrorKind::UnknownCriterion,
            "unknown_session" => ErrorKind::UnknownSession,
            "over_budget" => ErrorKind::OverBudget,
            "truncated" => ErrorKind::Truncated,
            "timeout" => ErrorKind::Timeout,
            "rejected" => ErrorKind::Rejected,
            "io" => ErrorKind::Io,
            "loading" => ErrorKind::Loading,
            "busy" => ErrorKind::Busy,
            "oversized" => ErrorKind::Oversized,
            "shutting_down" => ErrorKind::ShuttingDown,
            "handshake_required" => ErrorKind::HandshakeRequired,
            "unsupported_proto" => ErrorKind::UnsupportedProto,
            "internal" => ErrorKind::Internal,
            "quarantined" => ErrorKind::Quarantined,
            other => return Err(format!("unknown error kind `{other}`")),
        })
    }
}

/// One resident session as reported by a `list` response.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's name (the `session` field that addresses it).
    pub name: String,
    /// The backend serving it ([`dynslice_slicing::Slicer::name`]).
    pub algo: String,
    /// Bytes the session's dependence representation keeps resident.
    pub resident_bytes: u64,
    /// Slice requests this session has answered so far.
    pub requests: u64,
    /// Whether the session is still building (an asynchronous `load` in
    /// flight). Serialized as `"state":"loading"` and omitted for
    /// resident sessions, so resident-only listings keep the pre-async
    /// wire bytes.
    pub loading: bool,
    /// Whether the session was quarantined (its slicer panicked
    /// repeatedly): it is no longer resident and refuses queries until
    /// re-`load`ed. Serialized as `"state":"quarantined"`, omitted for
    /// healthy sessions.
    pub quarantined: bool,
}

impl SessionInfo {
    fn to_value(&self) -> Value {
        let mut obj = BTreeMap::new();
        obj.insert("name".into(), Value::Str(self.name.clone()));
        obj.insert("algo".into(), Value::Str(self.algo.clone()));
        obj.insert("resident_bytes".into(), Value::Num(self.resident_bytes as f64));
        obj.insert("requests".into(), Value::Num(self.requests as f64));
        if self.loading {
            obj.insert("state".into(), Value::Str("loading".into()));
        } else if self.quarantined {
            obj.insert("state".into(), Value::Str("quarantined".into()));
        }
        Value::Obj(obj)
    }

    fn from_value(v: &Value) -> Result<Self, String> {
        let obj = v.as_obj().ok_or("session entries must be objects")?;
        let text = |name: &str| {
            obj.get(name)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or(format!("session entry needs string `{name}`"))
        };
        let num = |name: &str| {
            obj.get(name)
                .and_then(Value::as_u64)
                .ok_or(format!("session entry needs unsigned `{name}`"))
        };
        let (loading, quarantined) = match obj.get("state") {
            None => (false, false),
            Some(v) => match v.as_str() {
                Some("loading") => (true, false),
                Some("quarantined") => (false, true),
                Some(other) => return Err(format!("unknown session state `{other}`")),
                None => return Err("session `state` must be a string".into()),
            },
        };
        Ok(SessionInfo {
            name: text("name")?,
            algo: text("algo")?,
            resident_bytes: num("resident_bytes")?,
            requests: num("requests")?,
            loading,
            quarantined,
        })
    }
}

/// The payload of one response line.
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// Answer to a `hello`: the protocol range this server accepts and
    /// its identity string.
    Hello {
        /// Oldest protocol revision the server accepts.
        proto_min: u64,
        /// Newest protocol revision the server accepts.
        proto_max: u64,
        /// Server identity, e.g. `dynslice/0.1.0`.
        server: String,
    },
    /// A successful slice answer.
    Slice {
        /// The serving algorithm ([`dynslice_slicing::Slicer::name`]).
        algo: String,
        /// Statement ids in the slice, ascending.
        stmts: Vec<u32>,
        /// Whether the answer came from the server's result cache.
        cached: bool,
        /// Service time in microseconds (queue wait excluded).
        micros: u64,
    },
    /// Acknowledgement of a blocking `load`: the session is built and
    /// resident.
    Loaded {
        /// The session's name.
        session: String,
        /// The backend that was built.
        algo: String,
        /// Bytes the new session keeps resident (what the memory budget
        /// charges it for).
        resident_bytes: u64,
    },
    /// Acknowledgement of an asynchronous `load`: the build was accepted
    /// and runs in the background; the session answers `loading` errors
    /// until it is resident.
    Loading {
        /// The session being built.
        session: String,
    },
    /// Acknowledgement of an `unload`.
    Unloaded {
        /// The dropped session's name.
        session: String,
    },
    /// Answer to a `list`: resident sessions, name-ascending.
    Sessions {
        /// One entry per resident named session.
        sessions: Vec<SessionInfo>,
    },
    /// Answer to a `health` probe: liveness plus the fault-tolerance
    /// counters, all monotonic within one server run (no wall-clock
    /// fields, so probes are deterministic under test).
    Health {
        /// `"ok"`, or `"degraded"` once the server has caught a panic or
        /// quarantined a session.
        status: String,
        /// Resident session count.
        sessions: u64,
        /// Sessions with an asynchronous build still in flight.
        loading: u64,
        /// Sessions currently quarantined.
        quarantined: u64,
        /// Requests queued but not yet picked up by a worker.
        queue_depth: u64,
        /// Panics caught by the worker and loader pools so far.
        panics: u64,
        /// Transient-failure retries (e.g. re-attempted spill reads).
        retries: u64,
    },
    /// Acknowledgement of a `shutdown` request.
    ShutdownAck,
    /// A failed request; the request is the only casualty — the session
    /// keeps serving.
    Error {
        /// Failure category.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
}

/// One response line.
#[derive(Clone, Debug, PartialEq)]
pub struct Response {
    /// The request's correlation id (0 when the request line was too
    /// malformed to carry one).
    pub id: u64,
    /// Outcome.
    pub body: ResponseBody,
}

impl Response {
    /// Whether this is a success response.
    pub fn is_ok(&self) -> bool {
        !matches!(self.body, ResponseBody::Error { .. })
    }

    /// Serializes to one protocol line (no trailing newline).
    pub fn to_json(&self) -> String {
        let mut obj = BTreeMap::new();
        obj.insert("id".into(), Value::Num(self.id as f64));
        match &self.body {
            ResponseBody::Hello { proto_min, proto_max, server } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("proto_min".into(), Value::Num(*proto_min as f64));
                obj.insert("proto_max".into(), Value::Num(*proto_max as f64));
                obj.insert("server".into(), Value::Str(server.clone()));
            }
            ResponseBody::Slice { algo, stmts, cached, micros } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("algo".into(), Value::Str(algo.clone()));
                obj.insert("len".into(), Value::Num(stmts.len() as f64));
                obj.insert(
                    "stmts".into(),
                    Value::Arr(stmts.iter().map(|s| Value::Num(*s as f64)).collect()),
                );
                obj.insert("cached".into(), Value::Bool(*cached));
                obj.insert("micros".into(), Value::Num(*micros as f64));
            }
            ResponseBody::Loaded { session, algo, resident_bytes } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("loaded".into(), Value::Str(session.clone()));
                obj.insert("algo".into(), Value::Str(algo.clone()));
                obj.insert("resident_bytes".into(), Value::Num(*resident_bytes as f64));
            }
            ResponseBody::Loading { session } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("loading".into(), Value::Str(session.clone()));
            }
            ResponseBody::Unloaded { session } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("unloaded".into(), Value::Str(session.clone()));
            }
            ResponseBody::Sessions { sessions } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert(
                    "sessions".into(),
                    Value::Arr(sessions.iter().map(SessionInfo::to_value).collect()),
                );
            }
            ResponseBody::Health {
                status,
                sessions,
                loading,
                quarantined,
                queue_depth,
                panics,
                retries,
            } => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("status".into(), Value::Str(status.clone()));
                obj.insert("sessions".into(), Value::Num(*sessions as f64));
                obj.insert("loading".into(), Value::Num(*loading as f64));
                obj.insert("quarantined".into(), Value::Num(*quarantined as f64));
                obj.insert("queue_depth".into(), Value::Num(*queue_depth as f64));
                obj.insert("panics".into(), Value::Num(*panics as f64));
                obj.insert("retries".into(), Value::Num(*retries as f64));
            }
            ResponseBody::ShutdownAck => {
                obj.insert("ok".into(), Value::Bool(true));
                obj.insert("shutdown".into(), Value::Bool(true));
            }
            ResponseBody::Error { kind, message } => {
                obj.insert("ok".into(), Value::Bool(false));
                obj.insert("error".into(), Value::Str(kind.as_str().into()));
                obj.insert("message".into(), Value::Str(message.clone()));
            }
        }
        Value::Obj(obj).to_json_compact()
    }

    /// Parses one response line.
    ///
    /// # Errors
    /// Malformed JSON or schema violations.
    pub fn parse(line: &str) -> Result<Self, String> {
        let root = json::parse(line)?;
        let obj = root.as_obj().ok_or("response must be a JSON object")?;
        let id = obj
            .get("id")
            .ok_or("missing `id`")?
            .as_u64()
            .ok_or("`id` must be an unsigned integer")?;
        let ok = match obj.get("ok").ok_or("missing `ok`")? {
            Value::Bool(b) => *b,
            _ => return Err("`ok` must be a boolean".into()),
        };
        let body = if !ok {
            let kind: ErrorKind = obj
                .get("error")
                .and_then(Value::as_str)
                .ok_or("error response needs `error`")?
                .parse()?;
            let message =
                obj.get("message").and_then(Value::as_str).unwrap_or_default().to_string();
            ResponseBody::Error { kind, message }
        } else if matches!(obj.get("shutdown"), Some(Value::Bool(true))) {
            ResponseBody::ShutdownAck
        } else if let Some(status) = obj.get("status") {
            // Keyed on `status`, and dispatched before the `loading` and
            // `sessions` branches: a health body reuses both of those key
            // names with numeric counts.
            let count = |name: &str| {
                obj.get(name)
                    .and_then(Value::as_u64)
                    .ok_or(format!("health reply needs unsigned `{name}`"))
            };
            ResponseBody::Health {
                status: status.as_str().ok_or("`status` must be a string")?.to_string(),
                sessions: count("sessions")?,
                loading: count("loading")?,
                quarantined: count("quarantined")?,
                queue_depth: count("queue_depth")?,
                panics: count("panics")?,
                retries: count("retries")?,
            }
        } else if let Some(server) = obj.get("server") {
            ResponseBody::Hello {
                proto_min: obj
                    .get("proto_min")
                    .and_then(Value::as_u64)
                    .ok_or("hello reply needs unsigned `proto_min`")?,
                proto_max: obj
                    .get("proto_max")
                    .and_then(Value::as_u64)
                    .ok_or("hello reply needs unsigned `proto_max`")?,
                server: server.as_str().ok_or("`server` must be a string")?.to_string(),
            }
        } else if let Some(session) = obj.get("loaded") {
            ResponseBody::Loaded {
                session: session.as_str().ok_or("`loaded` must be a string")?.to_string(),
                algo: obj
                    .get("algo")
                    .and_then(Value::as_str)
                    .ok_or("load ack needs `algo`")?
                    .to_string(),
                resident_bytes: obj
                    .get("resident_bytes")
                    .and_then(Value::as_u64)
                    .ok_or("load ack needs unsigned `resident_bytes`")?,
            }
        } else if let Some(session) = obj.get("loading") {
            ResponseBody::Loading {
                session: session.as_str().ok_or("`loading` must be a string")?.to_string(),
            }
        } else if let Some(session) = obj.get("unloaded") {
            ResponseBody::Unloaded {
                session: session.as_str().ok_or("`unloaded` must be a string")?.to_string(),
            }
        } else if let Some(sessions) = obj.get("sessions") {
            let items = match sessions {
                Value::Arr(items) => items,
                _ => return Err("`sessions` must be an array".into()),
            };
            ResponseBody::Sessions {
                sessions: items
                    .iter()
                    .map(SessionInfo::from_value)
                    .collect::<Result<Vec<_>, _>>()?,
            }
        } else {
            let algo =
                obj.get("algo").and_then(Value::as_str).ok_or("slice response needs `algo`")?;
            let stmts = match obj.get("stmts").ok_or("slice response needs `stmts`")? {
                Value::Arr(items) => items
                    .iter()
                    .map(|v| {
                        v.as_u64()
                            .and_then(|n| u32::try_from(n).ok())
                            .ok_or("`stmts` entries must be u32")
                    })
                    .collect::<Result<Vec<u32>, _>>()?,
                _ => return Err("`stmts` must be an array".into()),
            };
            if let Some(len) = obj.get("len") {
                if len.as_u64() != Some(stmts.len() as u64) {
                    return Err("`len` disagrees with `stmts`".into());
                }
            }
            let cached = matches!(obj.get("cached"), Some(Value::Bool(true)));
            let micros = obj.get("micros").and_then(Value::as_u64).unwrap_or(0);
            ResponseBody::Slice { algo: algo.to_string(), stmts, cached, micros }
        };
        Ok(Response { id, body })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dynslice_runtime::Cell;

    #[test]
    fn requests_round_trip() {
        let reqs = [
            Request::slice(1, &Criterion::Output(0)),
            Request::slice(2, &Criterion::CellLastDef(Cell::new(3, 4))),
            Request::slice_in(4, "trace-a", &Criterion::Output(0)),
            Request::load(5, "trace-a", "/tmp/a.minic", &[1, -2, 3], Some("opt")),
            Request::load(6, "trace-b", "b.minic", &[], None),
            Request::load_async(10, "trace-c", "c.minic", &[7], Some("paged")),
            Request::load_snapshot(12, "trace-d", "/tmp/d.dsnap", Some("opt")),
            Request { wait: true, ..Request::slice_in(11, "trace-c", &Criterion::Output(0)) },
            Request::unload(7, "trace-a"),
            Request::list(8),
            Request::health(14),
            Request::shutdown(9),
            Request::hello(0, PROTO_VERSION),
            Request::hello(13, 7),
        ];
        for r in reqs {
            let line = r.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Request::parse(&line).unwrap(), r);
        }
    }

    /// The `session` field (and the other load-only fields) are omitted
    /// when unset: a sessionless slice request is byte-for-byte what the
    /// single-trace protocol produced. A legacy line that still carries
    /// the retired `delay_ms` field parses, the field ignored like any
    /// other unknown key.
    #[test]
    fn sessionless_requests_keep_the_legacy_wire_format() {
        assert_eq!(
            Request::slice(1, &Criterion::Output(0)).to_json(),
            r#"{"criterion":"out:0","id":1}"#,
        );
        assert_eq!(
            Request::parse(r#"{"criterion":"out:1","delay_ms":500,"id":3}"#).unwrap(),
            Request::slice(3, &Criterion::Output(1)),
        );
        assert_eq!(Request::shutdown(9).to_json(), r#"{"id":9,"op":"shutdown"}"#);
    }

    /// `wait` only appears on the wire when set, and the blocking `load`
    /// constructor sets it (preserving its pre-async contract).
    #[test]
    fn wait_flag_wire_format() {
        assert!(!Request::slice(1, &Criterion::Output(0)).to_json().contains("wait"));
        assert!(!Request::load_async(2, "t", "a.minic", &[], None).to_json().contains("wait"));
        assert_eq!(
            Request::load(3, "t", "a.minic", &[], None).to_json(),
            r#"{"id":3,"op":"load","program":"a.minic","session":"t","wait":true}"#,
        );
        let r = Request::parse(r#"{"criterion":"out:0","session":"t","wait":true}"#).unwrap();
        assert!(r.wait);
        assert!(Request::parse(r#"{"criterion":"out:0","wait":"yes"}"#).is_err());
    }

    /// A `load` may name a `snapshot` instead of a `program`; the field
    /// only appears on the wire when set, so program loads keep their
    /// exact pre-snapshot bytes (pinned above).
    #[test]
    fn snapshot_load_wire_format() {
        assert_eq!(
            Request::load_snapshot(4, "t", "g.dsnap", None).to_json(),
            r#"{"id":4,"op":"load","session":"t","snapshot":"g.dsnap","wait":true}"#,
        );
        let r = Request::parse(r#"{"id":1,"op":"load","session":"t","snapshot":"g.dsnap"}"#)
            .unwrap();
        assert_eq!(r.snapshot.as_deref(), Some("g.dsnap"));
        assert_eq!(r.program, None);
        assert!(
            Request::parse(r#"{"id":1,"op":"load","session":"t"}"#).is_err(),
            "load still needs a program or a snapshot"
        );
    }

    #[test]
    fn request_defaults_and_validation() {
        let r = Request::parse(r#"{"criterion":"out:0"}"#).unwrap();
        assert_eq!(r.id, 0);
        assert_eq!(r.op, Op::Slice);
        assert_eq!(r.session, None);
        let r = Request::parse(r#"{"criterion":"out:0","session":"t"}"#).unwrap();
        assert_eq!(r.session.as_deref(), Some("t"));
        assert!(Request::parse(r#"{"id":1}"#).is_err(), "slice without criterion");
        assert!(Request::parse(r#"{"id":1,"op":"reboot"}"#).is_err(), "unknown op");
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"id":-1,"criterion":"out:0"}"#).is_err(), "negative id");
        assert!(
            Request::parse(r#"{"id":1,"op":"load","session":"t"}"#).is_err(),
            "load without program"
        );
        assert!(
            Request::parse(r#"{"id":1,"op":"load","program":"a.minic"}"#).is_err(),
            "load without session"
        );
        assert!(Request::parse(r#"{"id":1,"op":"unload"}"#).is_err(), "unload without session");
        assert!(
            Request::parse(r#"{"id":1,"criterion":"out:0","session":""}"#).is_err(),
            "empty session name"
        );
    }

    #[test]
    fn responses_round_trip() {
        let rs = [
            Response {
                id: 1,
                body: ResponseBody::Slice {
                    algo: "opt".into(),
                    stmts: vec![0, 2, 5],
                    cached: true,
                    micros: 42,
                },
            },
            Response { id: 2, body: ResponseBody::ShutdownAck },
            Response {
                id: 3,
                body: ResponseBody::Error {
                    kind: ErrorKind::Timeout,
                    message: "deadline exceeded".into(),
                },
            },
            Response {
                id: 4,
                body: ResponseBody::Loaded {
                    session: "trace-a".into(),
                    algo: "lp".into(),
                    resident_bytes: 12_288,
                },
            },
            Response { id: 5, body: ResponseBody::Unloaded { session: "trace-a".into() } },
            Response { id: 6, body: ResponseBody::Sessions { sessions: vec![] } },
            Response { id: 8, body: ResponseBody::Loading { session: "trace-b".into() } },
            Response {
                id: 7,
                body: ResponseBody::Sessions {
                    sessions: vec![
                        SessionInfo {
                            name: "a".into(),
                            algo: "opt".into(),
                            resident_bytes: 100,
                            requests: 3,
                            loading: false,
                            quarantined: false,
                        },
                        SessionInfo {
                            name: "b".into(),
                            algo: "paged".into(),
                            resident_bytes: 64,
                            requests: 0,
                            loading: false,
                            quarantined: false,
                        },
                        SessionInfo {
                            name: "c".into(),
                            algo: "opt".into(),
                            resident_bytes: 0,
                            requests: 0,
                            loading: true,
                            quarantined: false,
                        },
                    ],
                },
            },
        ];
        for r in rs {
            let line = r.to_json();
            assert!(!line.contains('\n'), "{line}");
            assert_eq!(Response::parse(&line).unwrap(), r);
        }
    }

    /// The `list` payload is deterministic down to the byte: the manager
    /// hands entries over name-sorted and every object serializes with
    /// sorted keys, so two sessions always produce exactly these bytes.
    #[test]
    fn session_list_wire_bytes_are_pinned() {
        let r = Response {
            id: 9,
            body: ResponseBody::Sessions {
                sessions: vec![
                    SessionInfo {
                        name: "alpha".into(),
                        algo: "opt".into(),
                        resident_bytes: 100,
                        requests: 3,
                        loading: false,
                            quarantined: false,
                    },
                    SessionInfo {
                        name: "beta".into(),
                        algo: "paged".into(),
                        resident_bytes: 64,
                        requests: 0,
                        loading: false,
                            quarantined: false,
                    },
                ],
            },
        };
        assert_eq!(
            r.to_json(),
            concat!(
                r#"{"id":9,"ok":true,"sessions":["#,
                r#"{"algo":"opt","name":"alpha","requests":3,"resident_bytes":100},"#,
                r#"{"algo":"paged","name":"beta","requests":0,"resident_bytes":64}"#,
                "]}"
            ),
        );
    }

    /// The health probe and its reply are pinned down to the byte, and a
    /// quarantined session round-trips through the list payload.
    #[test]
    fn health_wire_bytes_are_pinned() {
        assert_eq!(Request::health(2).to_json(), r#"{"id":2,"op":"health"}"#);
        let reply = Response {
            id: 2,
            body: ResponseBody::Health {
                status: "degraded".into(),
                sessions: 2,
                loading: 1,
                quarantined: 1,
                queue_depth: 3,
                panics: 4,
                retries: 5,
            },
        };
        assert_eq!(
            reply.to_json(),
            concat!(
                r#"{"id":2,"loading":1,"ok":true,"panics":4,"quarantined":1,"#,
                r#""queue_depth":3,"retries":5,"sessions":2,"status":"degraded"}"#
            ),
        );
        assert_eq!(Response::parse(&reply.to_json()).unwrap(), reply);

        let quarantined = Response {
            id: 3,
            body: ResponseBody::Sessions {
                sessions: vec![SessionInfo {
                    name: "q".into(),
                    algo: "opt".into(),
                    resident_bytes: 0,
                    requests: 7,
                    loading: false,
                    quarantined: true,
                }],
            },
        };
        assert_eq!(
            quarantined.to_json(),
            concat!(
                r#"{"id":3,"ok":true,"sessions":[{"algo":"opt","name":"q","requests":7,"#,
                r#""resident_bytes":0,"state":"quarantined"}]}"#
            ),
        );
        assert_eq!(Response::parse(&quarantined.to_json()).unwrap(), quarantined);
        assert!(
            Response::parse(r#"{"id":1,"ok":true,"sessions":[{"algo":"o","name":"q","requests":0,"resident_bytes":0,"state":"zombie"}]}"#)
                .is_err(),
            "unknown session state is rejected"
        );
    }

    /// The handshake lines are pinned down to the byte on both sides.
    #[test]
    fn hello_wire_bytes_are_pinned() {
        assert_eq!(Request::hello(0, 1).to_json(), r#"{"id":0,"op":"hello","proto":1}"#);
        // The ISSUE-form line (no id) parses with the id defaulted.
        let r = Request::parse(r#"{"op":"hello","proto":1}"#).unwrap();
        assert_eq!(r, Request::hello(0, 1));
        assert!(Request::parse(r#"{"op":"hello"}"#).is_err(), "hello needs a proto");
        assert!(Request::parse(r#"{"op":"hello","proto":-1}"#).is_err(), "negative proto");
        let reply = Response {
            id: 0,
            body: ResponseBody::Hello {
                proto_min: 1,
                proto_max: 1,
                server: "dynslice/0.1.0".into(),
            },
        };
        assert_eq!(
            reply.to_json(),
            r#"{"id":0,"ok":true,"proto_max":1,"proto_min":1,"server":"dynslice/0.1.0"}"#,
        );
        assert_eq!(Response::parse(&reply.to_json()).unwrap(), reply);
    }

    /// Every kind maps to a CLI exit code, and the buckets documented on
    /// [`ErrorKind::exit_code`] hold. The match inside `exit_code` is
    /// exhaustive, so a new kind without a code is a compile error — this
    /// test pins the values themselves.
    #[test]
    fn exit_codes_cover_every_error_kind() {
        for kind in ErrorKind::ALL {
            let code = kind.exit_code();
            assert!((1..=5).contains(&code), "{} -> {code}", kind.as_str());
        }
        assert_eq!(ErrorKind::BadRequest.exit_code(), 2);
        assert_eq!(ErrorKind::UnknownCriterion.exit_code(), 3);
        assert_eq!(ErrorKind::UnknownSession.exit_code(), 3);
        assert_eq!(ErrorKind::Truncated.exit_code(), 4);
        assert_eq!(ErrorKind::Io.exit_code(), 5);
        assert_eq!(ErrorKind::Busy.exit_code(), 1);
        assert_eq!(ErrorKind::ShuttingDown.exit_code(), 1);
        assert_eq!(ErrorKind::Internal.exit_code(), 1);
        assert_eq!(ErrorKind::Quarantined.exit_code(), 3);
    }

    /// Backend failures map onto the same taxonomy everywhere.
    #[test]
    fn slice_errors_map_to_protocol_kinds() {
        use dynslice_slicing::SliceError;
        assert_eq!(
            ErrorKind::from_slice_error(&SliceError::UnknownCriterion),
            ErrorKind::UnknownCriterion
        );
        assert_eq!(
            ErrorKind::from_slice_error(&SliceError::Io(std::io::Error::other("disk"))),
            ErrorKind::Io
        );
    }

    #[test]
    fn response_len_is_validated() {
        let line = r#"{"algo":"opt","id":1,"len":9,"ok":true,"stmts":[1]}"#;
        assert!(Response::parse(line).is_err());
    }

    #[test]
    fn every_error_kind_has_a_stable_tag() {
        for kind in ErrorKind::ALL {
            assert_eq!(kind.as_str().parse::<ErrorKind>().unwrap(), kind);
        }
        assert!("warp_failure".parse::<ErrorKind>().is_err());
    }
}
