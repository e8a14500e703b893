//! A small synchronous client for the slice service.
//!
//! Speaks the protocol of [`crate::protocol`] over a Unix socket or a
//! TCP connection. One request per call, blocking until the matching
//! response arrives — concurrency comes from using one client per thread
//! (the server interleaves freely), not from pipelining within a client.
//!
//! Connections are made through [`SliceClient::builder`], which performs
//! the versioned `hello` handshake on connect (mandatory on TCP) and can
//! retry with exponential backoff when the server answers `busy`:
//!
//! ```no_run
//! # use dynslice::SliceClient;
//! # use std::time::Duration;
//! let mut client = SliceClient::builder()
//!     .tcp("127.0.0.1:4400")
//!     .timeout(Duration::from_secs(5))
//!     .retries(3)
//!     .connect()?;
//! # Ok::<(), std::io::Error>(())
//! ```

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::time::Duration;

use dynslice_slicing::Criterion;

use crate::protocol::{ErrorKind, Request, Response, ResponseBody, PROTO_VERSION};

/// A connected stream of either socket family.
enum ClientStream {
    Unix(UnixStream),
    Tcp(TcpStream),
}

impl ClientStream {
    fn try_clone(&self) -> io::Result<ClientStream> {
        Ok(match self {
            ClientStream::Unix(s) => ClientStream::Unix(s.try_clone()?),
            ClientStream::Tcp(s) => ClientStream::Tcp(s.try_clone()?),
        })
    }

    fn set_timeouts(&self, timeout: Option<Duration>) -> io::Result<()> {
        match self {
            ClientStream::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            ClientStream::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }
}

impl Read for ClientStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.read(buf),
            ClientStream::Tcp(s) => s.read(buf),
        }
    }
}

impl Write for ClientStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            ClientStream::Unix(s) => s.write(buf),
            ClientStream::Tcp(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        match self {
            ClientStream::Unix(s) => s.flush(),
            ClientStream::Tcp(s) => s.flush(),
        }
    }
}

/// What the server said about itself in the `hello` handshake.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ServerInfo {
    /// Oldest protocol revision the server accepts.
    pub proto_min: u64,
    /// Newest protocol revision the server accepts.
    pub proto_max: u64,
    /// Server identity string, e.g. `dynslice/0.1.0`.
    pub server: String,
}

/// Where a [`ClientBuilder`] should dial.
enum Target {
    Unix(PathBuf),
    Tcp(String),
}

/// Configures and opens a [`SliceClient`] connection.
///
/// Built by [`SliceClient::builder`]; see the module docs for an
/// example. [`ClientBuilder::connect`] dials the target, applies the
/// socket timeout, performs the `hello` handshake, and — when the
/// server answers `busy` (its `--max-connections` cap is reached) —
/// retries up to [`ClientBuilder::retries`] times with exponential
/// backoff before giving up.
pub struct ClientBuilder {
    target: Option<Target>,
    timeout: Option<Duration>,
    retries: u32,
    backoff: Duration,
    proto: u64,
}

impl ClientBuilder {
    /// Dial the service's Unix socket at `path`.
    pub fn unix(mut self, path: impl AsRef<Path>) -> Self {
        self.target = Some(Target::Unix(path.as_ref().to_path_buf()));
        self
    }

    /// Dial the service's TCP listener at `addr` (`HOST:PORT`).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.target = Some(Target::Tcp(addr.into()));
        self
    }

    /// Socket read/write timeout for every request (default: none —
    /// block forever). A timed-out read surfaces as a `WouldBlock` /
    /// `TimedOut` I/O error from [`SliceClient::roundtrip`].
    pub fn timeout(mut self, timeout: Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// How many times to retry the connect+handshake when the server
    /// answers `busy` (default: 0). Waits [`ClientBuilder::backoff`]
    /// before the first retry, doubling each time.
    pub fn retries(mut self, retries: u32) -> Self {
        self.retries = retries;
        self
    }

    /// Initial backoff before the first `busy` retry (default: 25 ms).
    pub fn backoff(mut self, backoff: Duration) -> Self {
        self.backoff = backoff;
        self
    }

    /// Protocol revision to announce in the handshake. Defaults to
    /// [`PROTO_VERSION`]; override only to probe version negotiation.
    pub fn proto(mut self, proto: u64) -> Self {
        self.proto = proto;
        self
    }

    /// Dials the target, handshakes, and returns the connected client.
    ///
    /// # Errors
    /// Connect failures; `busy` after the retries are exhausted (kind
    /// `WouldBlock`); a handshake refusal such as `unsupported_proto`
    /// (kind `InvalidData`); ordinary socket I/O failures.
    pub fn connect(self) -> io::Result<SliceClient> {
        let target = self.target.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidInput,
                "client builder needs a target: call .unix(path) or .tcp(addr)",
            )
        })?;
        let mut backoff = self.backoff.max(Duration::from_millis(1));
        let mut attempt = 0;
        loop {
            match Self::dial(&target, self.timeout, self.proto) {
                Err(Dial::Busy(message)) if attempt < self.retries => {
                    let _ = message;
                    attempt += 1;
                    std::thread::sleep(backoff);
                    backoff = backoff.saturating_mul(2);
                }
                Err(Dial::Busy(message)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WouldBlock,
                        format!("server busy after {attempt} retries: {message}"),
                    ))
                }
                Err(Dial::Fatal(e)) => return Err(e),
                Ok(client) => return Ok(client),
            }
        }
    }

    fn dial(target: &Target, timeout: Option<Duration>, proto: u64) -> Result<SliceClient, Dial> {
        let stream = match target {
            Target::Unix(path) => ClientStream::Unix(UnixStream::connect(path)?),
            Target::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let _ = s.set_nodelay(true);
                ClientStream::Tcp(s)
            }
        };
        stream.set_timeouts(timeout)?;
        let writer = stream.try_clone()?;
        let mut client =
            SliceClient { reader: BufReader::new(stream), writer, next_id: 1, server: None };
        // A connection bounced off the `--max-connections` cap never
        // reaches the handshake: the server writes one `busy` line and
        // closes, which the hello roundtrip reads back here.
        match client.roundtrip(&Request::hello(0, proto))?.body {
            ResponseBody::Hello { proto_min, proto_max, server } => {
                client.server = Some(ServerInfo { proto_min, proto_max, server });
                Ok(client)
            }
            ResponseBody::Error { kind: ErrorKind::Busy, message } => Err(Dial::Busy(message)),
            ResponseBody::Error { kind, message } => Err(Dial::Fatal(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake refused ({}): {message}", kind.as_str()),
            ))),
            other => Err(Dial::Fatal(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("handshake expected a hello reply, got {other:?}"),
            ))),
        }
    }
}

/// Why one dial attempt failed: `busy` is retryable, the rest are not.
enum Dial {
    Busy(String),
    Fatal(io::Error),
}

impl From<io::Error> for Dial {
    fn from(e: io::Error) -> Self {
        Dial::Fatal(e)
    }
}

/// One connection to a running `dynslice serve` instance.
pub struct SliceClient {
    reader: BufReader<ClientStream>,
    writer: ClientStream,
    next_id: u64,
    server: Option<ServerInfo>,
}

impl SliceClient {
    /// Starts configuring a connection; finish with
    /// [`ClientBuilder::connect`].
    pub fn builder() -> ClientBuilder {
        ClientBuilder {
            target: None,
            timeout: None,
            retries: 0,
            backoff: Duration::from_millis(25),
            proto: PROTO_VERSION,
        }
    }

    /// Connects to the service's Unix socket without a handshake (the
    /// pre-TCP wire behavior, preserved for old call sites).
    ///
    /// # Errors
    /// Propagates connection failures.
    #[deprecated(note = "use SliceClient::builder().unix(path).connect()")]
    pub fn connect_unix(path: impl AsRef<Path>) -> io::Result<Self> {
        let stream = ClientStream::Unix(UnixStream::connect(path)?);
        let writer = stream.try_clone()?;
        Ok(SliceClient { reader: BufReader::new(stream), writer, next_id: 1, server: None })
    }

    /// What the server said about itself in the `hello` handshake
    /// (`None` on a handshake-free [`Self::connect_unix`] connection).
    pub fn server(&self) -> Option<&ServerInfo> {
        self.server.as_ref()
    }

    /// Sends `request` verbatim and returns the next response line.
    ///
    /// # Errors
    /// Socket I/O failures, a closed connection, or an unparseable
    /// response line.
    pub fn roundtrip(&mut self, request: &Request) -> io::Result<Response> {
        // One write for the whole line: a server that answers `busy` and
        // closes at once resets the connection when our bytes reach it,
        // and a second write would fail before the `busy` line is read.
        let mut line = request.to_json();
        line.push('\n');
        self.writer.write_all(line.as_bytes())?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Response::parse(line.trim_end())
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }

    /// Requests the slice for `criterion` against the server's default
    /// trace.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`]; a server-side error
    /// response is returned as a normal [`Response`], not an `Err`.
    pub fn slice(&mut self, criterion: &Criterion) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::slice(id, criterion))
    }

    /// Requests the slice for `criterion` against the named session.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn slice_in(&mut self, session: &str, criterion: &Criterion) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::slice_in(id, session, criterion))
    }

    /// Asks the server to compile `program`, trace it on `input`, and
    /// serve it as `session` (with the server's default backend unless
    /// `algo` overrides it).
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn load(
        &mut self,
        session: &str,
        program: &str,
        input: &[i64],
        algo: Option<&str>,
    ) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::load(id, session, program, input, algo))
    }

    /// Starts a **background** build of `session`: the server acks
    /// `loading` immediately and the session becomes resident when the
    /// build lands. Watch it via [`Self::list`], or send a slice with
    /// `wait` to block on the build.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn load_async(
        &mut self,
        session: &str,
        program: &str,
        input: &[i64],
        algo: Option<&str>,
    ) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::load_async(id, session, program, input, algo))
    }

    /// Requests the slice for `criterion` against the named session,
    /// waiting out an in-flight background load instead of taking the
    /// `loading` error.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn slice_in_wait(&mut self, session: &str, criterion: &Criterion) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request { wait: true, ..Request::slice_in(id, session, criterion) })
    }

    /// Drops the named session server-side.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn unload(&mut self, session: &str) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::unload(id, session))
    }

    /// Lists the server's resident sessions.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn list(&mut self) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::list(id))
    }

    /// Probes the server's health. The server answers `health` ahead of
    /// the handshake gate on every transport, so a monitor needs no
    /// protocol negotiation.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn health(&mut self) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::health(id))
    }

    /// Asks the server to shut down gracefully.
    ///
    /// # Errors
    /// Transport failures as in [`Self::roundtrip`].
    pub fn shutdown(&mut self) -> io::Result<Response> {
        let id = self.fresh_id();
        self.roundtrip(&Request::shutdown(id))
    }

    fn fresh_id(&mut self) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        id
    }
}
